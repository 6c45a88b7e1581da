#!/bin/sh
# Markdown link checker: every intra-repo link target named in the
# documentation set must exist on disk.  External links (http/https/mailto)
# are out of scope — no network in CI.  Registered as the `docs`-labeled
# ctest (see the top-level CMakeLists.txt); also runnable standalone from
# the repo root:  tools/check_docs.sh [file.md ...]
set -u

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$root" || exit 1

if [ "$#" -gt 0 ]; then
  files="$*"
else
  # The curated documentation set: top-level *.md plus docs/.  SNIPPETS.md
  # and PAPERS.md quote external material verbatim and are excluded.
  files="README.md DESIGN.md EXPERIMENTS.md ROADMAP.md CHANGES.md docs/*.md"
fi

fail=0
checked=0

check_target() {
  # $1 = markdown file containing the link, $2 = raw link target
  target=$2
  case $target in
    http://*|https://*|mailto:*|\#*) return 0 ;;  # external or same-page
  esac
  target=${target%%#*}                  # strip fragment
  [ -n "$target" ] || return 0
  case $target in
    /*) resolved=".$target" ;;          # repo-absolute
    *)  resolved="$(dirname -- "$1")/$target" ;;
  esac
  checked=$((checked + 1))
  if [ ! -e "$resolved" ]; then
    echo "DEAD LINK: $1 -> $2 (resolved: $resolved)" >&2
    fail=1
  fi
}

for f in $files; do
  [ -f "$f" ] || continue
  # Inline links [text](target) — possibly several per line.
  grep -o '](\([^)]*\))' "$f" | sed 's/^](//; s/)$//' | while IFS= read -r t; do
    echo "$t"
  done > /tmp/check_docs_targets.$$ || true
  while IFS= read -r t; do
    check_target "$f" "$t"
  done < /tmp/check_docs_targets.$$
  rm -f /tmp/check_docs_targets.$$

  # Bare file references in prose: `path/file.md` style mentions of repo
  # documents (DESIGN.md §N, docs/ALGORITHMS.md, ...).  A reference starts
  # at the beginning of a line or after a character that cannot be part of
  # a path, so the `bench/` inside `perfbench/` does not start one.
  grep -oE '(^|[^A-Za-z0-9_./-])(docs|tools|bench|perfbench|src|tests|examples)/[A-Za-z0-9_./-]*\.(md|sh|json|h|cpp)' "$f" \
      | sed -E 's/^[^A-Za-z0-9_./-]//' | sort -u \
      > /tmp/check_docs_bare.$$ || true
  while IFS= read -r t; do
    checked=$((checked + 1))
    if [ ! -e "$t" ]; then
      echo "DEAD REFERENCE: $f -> $t" >&2
      fail=1
    fi
  done < /tmp/check_docs_bare.$$
  rm -f /tmp/check_docs_bare.$$
done

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED" >&2
  exit 1
fi
echo "check_docs: OK ($checked targets checked)"
exit 0
