#!/usr/bin/env bash
# ckpt_inspect end to end (ctest labels: persist, tooling).
#
# Writes real checkpoints with the online_admission and multi_cycle examples
# (--checkpoint-every), then runs every ckpt_inspect subcommand on them:
# `validate` and `dump` decode the whole image, `diff` compares two files
# section by section, and a truncated file must be rejected.
#
#   tools/test_ckpt_inspect.sh <ckpt_inspect> <online_admission> <multi_cycle>
set -u

if [ $# -ne 3 ]; then
  echo "usage: $0 <ckpt_inspect> <online_admission> <multi_cycle>" >&2
  exit 2
fi
inspect=$1
online=$2
multi=$3

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
failures=0
fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

# Two online runs whose last checkpoints sit at different slot boundaries
# (10 and 9), and one multi-cycle run.
"$online" --requests 24 --batch 6 --seed 2 --checkpoint-every 5 \
  --checkpoint-path "$work/online_a.ckpt" > /dev/null || fail "online run a"
"$online" --requests 24 --batch 6 --seed 2 --checkpoint-every 3 \
  --checkpoint-path "$work/online_b.ckpt" > /dev/null || fail "online run b"
"$multi" --cycles 2 --requests 40 --checkpoint-every 1 \
  --checkpoint-path "$work/multi.ckpt" > /dev/null || fail "multi-cycle run"

# expect_exit <code> <label> <command...>: runs the command with its output
# in $work/out and checks its exit code.
expect_exit() {
  local want=$1 label=$2
  shift 2
  "$@" > "$work/out" 2>&1
  local got=$?
  if [ "$got" -ne "$want" ]; then
    fail "$label exited $got, expected $want:"
    cat "$work/out" >&2
  fi
}

# check_file <file> <kind>: validate, dump and a self-diff of one checkpoint.
check_file() {
  expect_exit 0 "validate $1" "$inspect" validate "$work/$1"
  expect_exit 0 "dump $1" "$inspect" dump "$work/$1"
  grep -q "\"kind\":\"$2\"" "$work/out" || fail "dump $1 does not name $2"
  expect_exit 0 "diff $1 with itself" "$inspect" diff "$work/$1" "$work/$1"
}
check_file online_a.ckpt online
check_file multi.ckpt multi_cycle

expect_exit 1 "diff of two boundaries" \
  "$inspect" diff "$work/online_a.ckpt" "$work/online_b.ckpt"
grep -q "first diverging section: meta" "$work/out" ||
  fail "diff of two boundaries does not name the meta section first"

size=$(wc -c < "$work/online_a.ckpt")
head -c $((size - 7)) "$work/online_a.ckpt" > "$work/truncated.ckpt"
expect_exit 1 "validate of a truncated file" \
  "$inspect" validate "$work/truncated.ckpt"

if [ "$failures" -ne 0 ]; then
  echo "ckpt_inspect: $failures check(s) failed" >&2
  exit 1
fi
echo "ckpt_inspect: validate, dump, diff and truncation checks passed"
