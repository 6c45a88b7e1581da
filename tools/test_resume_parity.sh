#!/usr/bin/env bash
# Kill/restore parity of the online replay (ctest labels: bench, persist).
#
# Runs bench_online_admission's --check-resume harness at fault rates 0 and
# 0.6 (36 expected arrivals, batch size 4), each in an empty working
# directory: the harness checkpoints at every slot boundary, resumes from
# each one and exits non-zero unless every resumed run reproduces the
# uninterrupted one byte for byte.  A passing run must delete every
# checkpoint it wrote, so its directory must be empty afterwards.
#
#   tools/test_resume_parity.sh <bench_online_admission>
set -u

if [ $# -ne 1 ]; then
  echo "usage: $0 <bench_online_admission>" >&2
  exit 2
fi
# Absolute, because each run starts in a directory of its own.
bench=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
failures=0
fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

for rate in 0 0.6; do
  run="$work/rate_$rate"
  mkdir "$run"
  if ! (cd "$run" && "$bench" --check-resume --requests 36 --batch-size 4 \
          --fault-rate "$rate") > "$work/out" 2>&1; then
    fail "resume parity at fault rate $rate:"
    cat "$work/out" >&2
  elif [ -n "$(ls -A "$run")" ]; then
    fail "resume parity at fault rate $rate passed but left files behind:" \
      $(ls -A "$run")
  fi
done

if [ "$failures" -ne 0 ]; then
  echo "resume parity: $failures run(s) failed" >&2
  exit 1
fi
echo "resume parity: every boundary resumes byte-identically at rates 0 and 0.6"
