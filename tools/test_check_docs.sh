#!/bin/sh
# Self-test of tools/check_docs.sh on temporary markdown files: a bare
# mention of perfbench/README.md must resolve under perfbench/ (not as
# bench/README.md, the tail of the longer word), and a bare mention of a
# missing document under bench/ or perfbench/ must fail the check and be
# named.  Registered as the `test_check_docs` ctest (labels docs;tooling);
# also runnable standalone:  tools/test_check_docs.sh
set -u

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
checker="$root/tools/check_docs.sh"
tmp=$(mktemp -d) || exit 1
trap 'rm -rf "$tmp"' EXIT
fail=0

# expect_pass FILE TEXT: the checker accepts a file holding TEXT.
expect_pass() {
  printf '%s\n' "$2" > "$tmp/$1"
  if ! "$checker" "$tmp/$1" > "$tmp/out" 2>&1; then
    echo "FAIL: $1 was rejected:" >&2
    cat "$tmp/out" >&2
    fail=1
  fi
}

# expect_dead FILE TEXT TARGET: the checker rejects a file holding TEXT
# and names TARGET as the dead reference.
expect_dead() {
  printf '%s\n' "$2" > "$tmp/$1"
  if "$checker" "$tmp/$1" > "$tmp/out" 2>&1; then
    echo "FAIL: $1 passed although $3 does not exist" >&2
    fail=1
  elif ! grep -q "DEAD REFERENCE: .* -> $3\$" "$tmp/out"; then
    echo "FAIL: $1 was rejected without naming $3:" >&2
    cat "$tmp/out" >&2
    fail=1
  fi
}

expect_pass perfbench.md 'The workloads are listed in perfbench/README.md.'
expect_pass start.md 'perfbench/README.md opens a line; (docs/ARCHITECTURE.md) too.'
expect_dead bench.md 'See bench/no_such_document.md.' bench/no_such_document.md
expect_dead perfbench_missing.md 'See perfbench/no_such_document.md.' \
  perfbench/no_such_document.md

if [ "$fail" -ne 0 ]; then
  echo "test_check_docs: FAILED" >&2
  exit 1
fi
echo "test_check_docs: OK"
exit 0
