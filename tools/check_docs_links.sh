#!/bin/sh
# Markdown link checker: verifies that every relative link and every
# file path mentioned in backticks across the repo's documentation
# resolves to a real file, so README/DESIGN/docs cross-links cannot rot.
#
# Usage: tools/check_docs_links.sh [repo-root]
# Exit status: 0 when every reference resolves, 1 otherwise (each
# broken reference is printed as "<doc>: <target>").
#
# Three kinds of references are checked:
#   1. Markdown inline links `[text](target)` whose target is relative
#      (external http(s)/mailto links and pure #anchors are skipped).
#   2. Backticked repo paths like `docs/CHECKPOINTS.md` or
#      `src/engine/shard_set.h` — the dominant cross-reference
#      style in this repo's prose (paths containing a `/` and ending in
#      a known source/doc extension).
#   3. Backticked test citations `Suite.Test`, both parts starting upper
#      case (`ColdTierTest.ReactivationContinuesTheExactStream`), which
#      must name a TEST, TEST_F or TEST_P in tests/*.cc. Only the docs
#      that describe the code as it stands are checked for these: every
#      doc below a directory, and README, DESIGN, CONTRIBUTING,
#      EXPERIMENTS and ROADMAP at the root. The other root docs are
#      history (CHANGES.md cites tests since deleted) or notes on the
#      paper and related work.

set -u

root="${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}"
cd "$root" || exit 1

docs=$(find . -path ./build -prune -o -name '*.md' -print | sort)
status=0

check() {
  # $1 = referencing doc, $2 = target path (relative to repo root or doc)
  doc="$1"; target="$2"
  case "$target" in
    http://*|https://*|mailto:*|\#*) return 0 ;;
  esac
  # Strip an anchor suffix, if any.
  file="${target%%#*}"
  [ -n "$file" ] || return 0
  docdir=$(dirname -- "$doc")
  # Resolve against the repo root, the referencing doc's directory, and
  # the include root (prose cites headers as `core/exact.h`, the path
  # used in #include directives).
  if [ -e "$file" ] || [ -e "$docdir/$file" ] || [ -e "src/$file" ]; then
    return 0
  fi
  printf '%s: %s\n' "$doc" "$target"
  status=1
}

# Every `Suite.Test` that tests/*.cc defines, one per line (a TEST may
# span lines, so the files are joined first).
tests=$(cat tests/*.cc | tr '\n' ' ' |
        grep -oE 'TEST(_F|_P)?\( *[A-Za-z0-9_]+ *, *[A-Za-z0-9_]+ *\)' |
        sed -E 's/TEST(_F|_P)?\( *([A-Za-z0-9_]+) *, *([A-Za-z0-9_]+) *\)/\2.\3/')

for doc in $docs; do
  # 1. Inline markdown links [text](target).
  for target in $(grep -o '\[[^][]*\]([^()[:space:]]*)' "$doc" 2>/dev/null |
                  sed 's/.*](\([^)]*\))/\1/'); do
    check "$doc" "$target"
  done
  # 2. Backticked repo paths with a directory component and a source or
  #    markdown extension.
  for target in $(grep -o '`[A-Za-z0-9_./-]*`' "$doc" 2>/dev/null |
                  tr -d '`' |
                  grep '/' |
                  grep -E '\.(md|h|cc|cpp|sh|txt)$' |
                  sort -u); do
    check "$doc" "$target"
  done
  # 3. Backticked test citations.
  case "$doc" in
    ./*/*|./README.md|./DESIGN.md|./CONTRIBUTING.md|./EXPERIMENTS.md) ;;
    ./ROADMAP.md) ;;
    *) continue ;;
  esac
  for target in $(grep -oE '`[A-Z][A-Za-z0-9_]*\.[A-Z][A-Za-z0-9_]*`' "$doc" |
                  tr -d '`' | sort -u); do
    if ! printf '%s\n' "$tests" | grep -qxF "$target"; then
      printf '%s: no test %s in tests/*.cc\n' "$doc" "$target"
      status=1
    fi
  done
done

if [ "$status" -eq 0 ]; then
  echo "check_docs_links: all documentation references resolve"
fi
exit "$status"
