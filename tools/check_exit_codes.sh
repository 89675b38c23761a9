#!/usr/bin/env bash
# Smoke-tests the unified CLI exit-code contract (README "Exit codes"):
#
#   0  success
#   1  usage error or input/IO error
#   2  lint reject (tbc_lint) / certificate reject (tbc_certify) /
#      unparseable input, an empty file included (kc_cli, tbc_lint,
#      tbc_certify, tbc_analyze) / circuit store reject (kc_cli
#      --load-circuit on corrupt bytes)
#   3  typed resource refusal (budget/deadline/overload/unavailable)
#   4  certificate reject during an in-process kc_cli --certify run
#
# Usage: tools/check_exit_codes.sh \
#          [kc_cli [tbc_lint [tbc_certify [tbc_client [tbc_analyze]]]]]
#   Binaries default to build/examples/<name>.

set -uo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
KC="${1:-$ROOT/build/examples/kc_cli}"
LINT="${2:-$ROOT/build/examples/tbc_lint}"
CERTIFY="${3:-$ROOT/build/examples/tbc_certify}"
CLIENT="${4:-$ROOT/build/examples/tbc_client}"
ANALYZE="${5:-$ROOT/build/examples/tbc_analyze}"

for bin in "$KC" "$LINT" "$CERTIFY"; do
  if [[ ! -x "$bin" ]]; then
    echo "check_exit_codes: $bin not found (build first)" >&2
    exit 1
  fi
done

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
FAILED=0

expect() {
  local want="$1" label="$2"
  shift 2
  "$@" >/dev/null 2>&1
  local got=$?
  if [[ "$got" != "$want" ]]; then
    echo "check_exit_codes: FAIL $label: want exit $want, got $got: $*" >&2
    FAILED=1
  else
    echo "check_exit_codes: ok   $label (exit $got)"
  fi
}

printf 'p cnf 3 2\n1 2 0\n-1 3 0\n' > "$TMP/good.cnf"
# Empty but readable: every tool must call it unparseable input (2), not
# an I/O error (1).
: > "$TMP/empty"
printf 'p cnf oops\n' > "$TMP/bad.cnf"
# A hard random 3-CNF at the phase transition: guaranteed to blow a
# 50-node budget, so kc_cli must answer a typed refusal (3).
python3 - "$TMP/hard.cnf" <<'PY'
import random, sys
random.seed(7)
n, m = 60, 256
with open(sys.argv[1], "w") as f:
    f.write(f"p cnf {n} {m}\n")
    for _ in range(m):
        vs = random.sample(range(1, n + 1), 3)
        f.write(" ".join(str(v if random.random() < 0.5 else -v) for v in vs) + " 0\n")
PY

# kc_cli: 0 / 1 / 2 / 3 / (4 via --certify on a reject, not reachable from
# well-formed input — the tamper path is covered through tbc_certify).
expect 0 "kc_cli compiles"              "$KC" "$TMP/good.cnf"
expect 1 "kc_cli no args"               "$KC"
expect 1 "kc_cli missing file"          "$KC" "$TMP/nope.cnf"
expect 2 "kc_cli empty file"            "$KC" "$TMP/empty"
expect 2 "kc_cli bad cnf"               "$KC" "$TMP/bad.cnf"
expect 1 "kc_cli bad flag value"        "$KC" "$TMP/good.cnf" --timeout-ms=banana
expect 1 "kc_cli unknown target"        "$KC" "$TMP/good.cnf" --target=dnf
expect 3 "kc_cli budget refusal"        "$KC" "$TMP/hard.cnf" --max-nodes=50
expect 0 "kc_cli certify ok"            "$KC" "$TMP/good.cnf" --certify

# In-place SDD minimization flags: bad mode / orphan threshold are usage
# errors (1), valid modes compile fine (0), and a starved minimizing run
# still answers with the typed budget refusal (3), not a crash.
expect 1 "kc_cli bad sdd-minimize"      "$KC" "$TMP/good.cnf" --target=sdd \
           --sdd-minimize=banana
expect 1 "kc_cli orphan sdd threshold"  "$KC" "$TMP/good.cnf" --target=sdd \
           --sdd-minimize-threshold=1.5
expect 0 "kc_cli sdd-minimize auto"     "$KC" "$TMP/good.cnf" --target=sdd \
           --sdd-minimize=auto
expect 0 "kc_cli sdd-minimize aggressive" "$KC" "$TMP/good.cnf" --target=sdd \
           --sdd-minimize=aggressive --sdd-minimize-threshold=1.25
expect 0 "kc_cli in-place minimize"     "$KC" "$TMP/good.cnf" --target=sdd \
           --minimize=32
expect 3 "kc_cli minimize under budget" "$KC" "$TMP/hard.cnf" --target=sdd \
           --minimize=1000 --sdd-minimize=aggressive --max-nodes=50

# kc_cli circuit store: save (0), load (0), corrupt store (2, the typed
# kInvalidInput reject — deeper coverage lives in check_store.sh),
# missing store (1), save under a non-ddnnf target (1).
"$KC" "$TMP/good.cnf" --save-circuit="$TMP/good.tbc" >/dev/null 2>&1
expect 0 "kc_cli save-circuit"          "$KC" "$TMP/good.cnf" \
           --save-circuit="$TMP/good.tbc"
expect 0 "kc_cli load-circuit"          "$KC" --load-circuit="$TMP/good.tbc"
head -c 100 "$TMP/good.tbc" > "$TMP/cut.tbc"
expect 2 "kc_cli corrupt store reject"  "$KC" --load-circuit="$TMP/cut.tbc"
expect 1 "kc_cli missing store"         "$KC" --load-circuit="$TMP/nope.tbc"
expect 1 "kc_cli save non-ddnnf"        "$KC" "$TMP/good.cnf" --target=sdd \
           --save-circuit="$TMP/bad.tbc"

# tbc_lint: 0 / 1 / 2.
"$KC" "$TMP/good.cnf" --write-nnf="$TMP/good.nnf" >/dev/null 2>&1
printf 'nnf 4 4 2\nL 1\nL 2\nA 2 0 1\nO 1 2 2 1\n' > "$TMP/nondet.nnf"
expect 0 "tbc_lint clean circuit"       "$LINT" "$TMP/good.nnf"
expect 1 "tbc_lint no args"             "$LINT"
expect 1 "tbc_lint missing file"        "$LINT" "$TMP/nope.nnf"
expect 2 "tbc_lint empty file"          "$LINT" "$TMP/empty"
expect 2 "tbc_lint determinism reject"  "$LINT" "$TMP/nondet.nnf"

# tbc_certify: 0 / 1 / 2 (tampered certificate must be *rejected*, not
# crash and not pass).
"$KC" "$TMP/good.cnf" --certify-out="$TMP/cert.txt" >/dev/null 2>&1
sed 's/^count 4$/count 5/' "$TMP/cert.txt" > "$TMP/tampered.txt"
expect 0 "tbc_certify valid cert"       "$CERTIFY" "$TMP/cert.txt"
expect 1 "tbc_certify no args"          "$CERTIFY"
expect 1 "tbc_certify missing file"     "$CERTIFY" "$TMP/nope.txt"
expect 2 "tbc_certify empty file"       "$CERTIFY" "$TMP/empty"
expect 2 "tbc_certify tampered cert"    "$CERTIFY" "$TMP/tampered.txt"

# tbc_client: 0 ok / 1 usage / 3 typed refusal. A dead server is a typed
# kUnavailable refusal after retries — scripts can tell "retry later" (3)
# from "fix your invocation" (1).
if [[ -x "$CLIENT" ]]; then
  expect 1 "tbc_client no args"         "$CLIENT"
  expect 1 "tbc_client bad op"          "$CLIENT" --connect=:1 --op=nonsense
  expect 3 "tbc_client dead server"     "$CLIENT" --connect=tcp:127.0.0.1:1 \
             --op=ping --retries=1 --deadline-ms=2000
fi

# tbc_analyze: 0 clean / 1 usage-IO / 2 unparseable CNF / 3 over the
# --max-width forecast cap. The wide clause makes the primal graph a
# 30-clique (predicted width 29).
if [[ -x "$ANALYZE" ]]; then
  printf 'p cnf 30 1\n%s0\n' "$(seq -s' ' 1 30) " > "$TMP/wide.cnf"
  expect 0 "tbc_analyze clean"          "$ANALYZE" "$TMP/good.cnf"
  expect 1 "tbc_analyze no args"        "$ANALYZE"
  expect 1 "tbc_analyze missing file"   "$ANALYZE" "$TMP/nope.cnf"
  expect 1 "tbc_analyze bad format"     "$ANALYZE" --format=yaml "$TMP/good.cnf"
  expect 2 "tbc_analyze bad cnf"        "$ANALYZE" "$TMP/bad.cnf"
  expect 3 "tbc_analyze over width cap" "$ANALYZE" --max-width=10 "$TMP/wide.cnf"
  expect 0 "tbc_analyze under width cap" "$ANALYZE" --max-width=29 "$TMP/wide.cnf"
  # An empty-but-readable file is unparseable CNF (2), not an I/O error
  # (1); an unreadable file among good ones still exits 1 but must not
  # truncate the JSON array mid-list.
  expect 2 "tbc_analyze empty file"     "$ANALYZE" "$TMP/empty"
  expect 1 "tbc_analyze missing among good" \
    "$ANALYZE" --format=json "$TMP/nope.cnf" "$TMP/good.cnf"
  # Capture first: tbc_analyze exits 1 here by design, which would trip
  # pipefail even when the JSON itself is fine.
  "$ANALYZE" --format=json "$TMP/nope.cnf" "$TMP/good.cnf" \
    > "$TMP/io.json" 2>/dev/null
  if ! python3 -c '
import json, sys
reports = json.load(sys.stdin)
assert len(reports) == 2, "expected one entry per listed file"
assert any("structure.io" in json.dumps(r["diagnostics"]) for r in reports)
' < "$TMP/io.json"; then
    echo "check_exit_codes: FAIL tbc_analyze json with unreadable file is" \
         "not a complete array" >&2
    FAILED=1
  else
    echo "check_exit_codes: ok   tbc_analyze json array complete on IO error"
  fi
fi

# tbc_serve: minimize-flag validation happens before binding the socket —
# a bad mode or an orphan threshold is a usage error (1), never a hang.
SERVE="$ROOT/build/examples/tbc_serve"
if [[ -x "$SERVE" ]]; then
  expect 1 "tbc_serve bad sdd-minimize" "$SERVE" \
             --listen=unix:"$TMP/serve.sock" --sdd-minimize=banana
  expect 1 "tbc_serve orphan sdd threshold" "$SERVE" \
             --listen=unix:"$TMP/serve.sock" --sdd-minimize-threshold=2.0
fi

if [[ "$FAILED" != 0 ]]; then
  echo "check_exit_codes: FAILED" >&2
  exit 1
fi
echo "check_exit_codes: all exit codes conform"
