#!/bin/sh
# Multi-process store contention under chaos: three real araxl processes
# simulate the same sweep concurrently and append to ONE shared cache file
# while 50% of store writes are injected to tear mid-line. The contract:
#
#   * concurrent appends interleave at line granularity (O_APPEND,
#     single-write flushes) and torn tails are healed by the next writer,
#     so the store always LOADS afterwards — bad lines are skipped and
#     counted, never fatal;
#   * a clean resume run over the recovered store re-simulates whatever
#     the chaos lost and produces a report byte-identical to a cache-free
#     clean run.
set -u

ARAXL=${1:?usage: store_contention.sh /path/to/araxl}
# The tests run in a temporary directory: anchor a relative path first.
case $ARAXL in
  /*) ;;
  */*) ARAXL=$PWD/$ARAXL ;;
esac
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK" || exit 99

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

# Reference reports from a clean, cache-free run.
"$ARAXL" sweep --smoke --no-cache --quiet --json ref.json --csv ref.csv \
  || fail "reference sweep"

# Three writer processes, one store, 50% torn writes (per-process fault
# seeds so the tears decorrelate). Store failures degrade, never abort:
# each sweep itself must still exit 0.
pids=""
for i in 1 2 3; do
  "$ARAXL" sweep --smoke --store shared.jsonl --quiet \
    --inject-faults "seed=$i,store.write=0.5" >"writer$i.log" 2>&1 &
  pids="$pids $!"
done
st=0
for p in $pids; do
  wait "$p" || st=$?
done
[ "$st" -eq 0 ] || fail "a chaos writer exited $st"

# The shared store must load after the chaos (torn lines skipped).
"$ARAXL" cache stats --store shared.jsonl >stats.log 2>&1 \
  || fail "recovered store does not load"
grep -q "^entries:" stats.log || fail "cache stats output malformed"

# A clean resume over the recovered store fills in whatever was lost and
# reports byte-identically to the cache-free reference.
"$ARAXL" sweep --smoke --store shared.jsonl --quiet \
  --json got.json --csv got.csv || fail "resume sweep"
cmp ref.json got.json || fail "JSON report differs after recovery"
cmp ref.csv got.csv || fail "CSV report differs after recovery"

echo "store contention: 3 writers, 50% torn writes, recovered byte-identically"
