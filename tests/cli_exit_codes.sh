#!/bin/sh
# CLI exit-code contract (documented in `araxl --help`):
#   0  every job succeeded          2  usage or configuration error
#   1  one or more jobs failed      3  internal or store I/O error
# Driven end to end through the built binary with deterministic fault
# injection, so the codes stay a contract rather than an accident.
set -u

ARAXL=${1:?usage: cli_exit_codes.sh /path/to/araxl}
# The tests run in a temporary directory: anchor a relative path first.
case $ARAXL in
  /*) ;;
  */*) ARAXL=$PWD/$ARAXL ;;
esac
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK" || exit 99

fails=0
expect() {
  desc=$1
  want=$2
  shift 2
  "$@" >stdout.log 2>stderr.log
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $desc: expected exit $want, got $got" >&2
    sed 's/^/  stderr: /' stderr.log >&2
    fails=$((fails + 1))
  else
    echo "ok: $desc (exit $got)"
  fi
}

run_ok="$ARAXL run --kernel stream_triad --config araxl:8 --bpl 64 --store cache.jsonl --quiet"

# 0 — clean success (and the resume path: the rerun replays from the store).
expect "clean run succeeds" 0 $run_ok
expect "rerun resumes from store" 0 $run_ok

# 1 — job failures: every job is injected to fail permanently.
expect "injected job failure" 1 \
  "$ARAXL" run --kernel stream_triad --config araxl:8 --bpl 64 \
  --no-cache --quiet --retries 0 --inject-faults seed=1,job.fail=1

# 2 — usage and configuration errors.
expect "unknown kernel" 2 "$ARAXL" run --kernel no_such_kernel --no-cache --quiet
expect "malformed config spec" 2 \
  "$ARAXL" run --kernel exp --config araxl:not-a-number --no-cache --quiet
expect "malformed fault spec" 2 \
  "$ARAXL" run --kernel exp --config araxl:8 --bpl 64 --no-cache --quiet \
  --inject-faults bogus=1
expect "missing flag value" 2 "$ARAXL" sweep --configs

# 3 — store I/O errors: gc's compaction rename is injected to fail.
expect "injected gc rename failure" 3 \
  "$ARAXL" cache gc --store cache.jsonl --inject-faults seed=1,store.rename=1
expect "store survived the failed gc" 0 \
  "$ARAXL" cache stats --store cache.jsonl

# The JSON report carries the per-job status classification.
"$ARAXL" run --kernel stream_triad --config araxl:8 --bpl 64 --no-cache --quiet \
  --retries 0 --inject-faults seed=1,job.fail=1 --json report.json
grep -q '"status":"injected"' report.json || {
  echo "FAIL: report.json lacks status=injected" >&2
  fails=$((fails + 1))
}
"$ARAXL" run --kernel stream_triad --config araxl:8 --bpl 64 --no-cache --quiet \
  --json clean.json
grep -q '"status":"ok"' clean.json || {
  echo "FAIL: clean.json lacks status=ok" >&2
  fails=$((fails + 1))
}

# A report record without a key `araxl report` needs is a usage error that
# names the key, not a crash.
sed 's/"label":"araxl:8",//' clean.json >nolabel.json
expect "report --from-json on a record without config.label" 2 \
  "$ARAXL" report --from-json nolabel.json --out nolabel-report
grep -q "missing 'config.label'" stderr.log || {
  echo "FAIL: report error does not name config.label" >&2
  fails=$((fails + 1))
}

# Fleet orchestration: serve -> worker -> merge --ledger round-trips with
# the same exit-code contract.
serve_axes="--configs araxl:8 --kernels stream_triad --bpl 64"
expect "serve enqueues a ledger" 0 \
  "$ARAXL" serve --ledger fleet.jsonl $serve_axes
expect "serve refuses an existing ledger" 2 \
  "$ARAXL" serve --ledger fleet.jsonl $serve_axes
expect "merge --ledger refuses an incomplete ledger" 2 \
  "$ARAXL" merge --ledger fleet.jsonl --json fleet.json
expect "worker drains the ledger" 0 \
  "$ARAXL" worker --ledger fleet.jsonl --id w1 --store cache.jsonl --quiet
expect "merge --ledger assembles the report" 0 \
  "$ARAXL" merge --ledger fleet.jsonl --json fleet.json --csv fleet.csv
grep -q '"status":"ok"' fleet.json || {
  echo "FAIL: fleet.json lacks status=ok" >&2
  fails=$((fails + 1))
}
expect "worker needs a ledger that exists" 2 \
  "$ARAXL" worker --ledger no-such-ledger.jsonl --quiet
"$ARAXL" serve --ledger fail.jsonl $serve_axes 2>/dev/null
expect "worker surfaces job failures" 1 \
  "$ARAXL" worker --ledger fail.jsonl --id w1 --no-cache --quiet --retries 0 \
  --inject-faults seed=1,job.fail=1

# --help documents the contract.
"$ARAXL" --help | grep -q "exit codes:" || {
  echo "FAIL: --help does not document exit codes" >&2
  fails=$((fails + 1))
}

[ "$fails" -eq 0 ] || exit 1
echo "all exit-code checks passed"
