#!/bin/sh
# Diffs the golden transcript (tests/golden_transcript_test.cc) of a git
# revision against the working tree, to show what a change moved.
#
#   tools/transcript_diff.sh <rev> [scratch-dir]
#
# The revision is exported with `git archive` into
# <scratch-dir>/rev/src and built in <scratch-dir>/rev/build; the working
# tree is built in <scratch-dir>/work/build. Only the
# golden_transcript_test target is built on each side. Each side then
# runs that test with HIMPACT_GOLDEN_DUMP=<side>/dump, which writes
# `<config>.txt` (every request and its reply) and `<config>/` (the
# checkpoint, WAL and segment files the run left). The test's own
# verdict is ignored: the working tree may have changed bytes on purpose.
#
# For each configuration it prints how many replies differ, split into
# `health` replies and the rest, the health keys that were dropped,
# added or changed, and the files only on one side or differing. When
# the two transcripts differ in line count, replies no longer pair up
# line by line, so it prints the raw diff instead of the counts. The
# full diffs stay in the scratch dir. The default scratch dir is
# ${TMPDIR:-/tmp}/himpact_transcript_diff.
#
# Exit status: 0 when the script ran (whatever the diff says), 1 on a
# build or usage failure.

set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: tools/transcript_diff.sh <rev> [scratch-dir]" >&2
  exit 1
fi
rev="$1"
repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
scratch="${2:-${TMPDIR:-/tmp}/himpact_transcript_diff}"
jobs=$(nproc 2>/dev/null || echo 2)

sha=$(git -C "$repo" rev-parse --verify "$rev^{commit}")
rm -rf "$scratch/rev/src" "$scratch/rev/dump" "$scratch/work/dump"
mkdir -p "$scratch/rev/src" "$scratch/work"
git -C "$repo" archive "$sha" | tar -x -C "$scratch/rev/src"

# build_and_dump <source-dir> <side-dir>
build_and_dump() {
  cmake -S "$1" -B "$2/build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$2/build" --target golden_transcript_test -j "$jobs" \
      >"$2/build.log" 2>&1 || { cat "$2/build.log" >&2; exit 1; }
  HIMPACT_GOLDEN_DUMP="$2/dump" "$2/build/tests/golden_transcript_test" \
      >"$2/test.log" 2>&1 || true
}
build_and_dump "$scratch/rev/src" "$scratch/rev"
build_and_dump "$repo" "$scratch/work"

echo "transcript diff: $rev ($(echo "$sha" | cut -c1-12)) -> working tree"
for want in "$scratch/rev/dump"/*.txt; do
  config=$(basename "$want" .txt)
  got="$scratch/work/dump/$config.txt"
  [ -f "$got" ] || { echo "config $config: missing in the working tree"; continue; }
  diff "$want" "$got" >"$scratch/$config.transcript.diff" || true
  want_lines=$(wc -l <"$want")
  got_lines=$(wc -l <"$got")
  if [ "$want_lines" -ne "$got_lines" ]; then
    # Line i no longer pairs with line i: report only the raw diff.
    echo "config $config: line counts differ ($want_lines -> $got_lines)"
    sed -e 's/^/  /' "$scratch/$config.transcript.diff"
  else
    # The transcript alternates "> request" lines and reply lines.
    paste -d '\n' "$want" "$got" | awk -v config="$config" '
    function keys(line, out,    n, i, parts, kv) {
      gsub(/[{}]/, ",", line)
      gsub(/"/, "", line)
      n = split(line, parts, ",")
      for (i = 1; i <= n; i++) {
        if (split(parts[i], kv, ":") == 2) out[kv[1]] = kv[2]
      }
    }
    NR % 2 == 1 { a = $0; next }
    {
      b = $0
      if (a ~ /^> /) next
      ++replies
      if (a == b) next
      if (a ~ /^HEALTH / && b ~ /^HEALTH /) {
        ++health
        split("", ka); split("", kb)
        keys(a, ka); keys(b, kb)
        for (k in ka) if (!(k in kb)) dropped[k] = 1
        for (k in kb) if (!(k in ka)) added[k] = 1
        for (k in ka) if ((k in kb) && ka[k] != kb[k]) changed[k] = 1
      } else {
        ++other
        if (first == "") first = replies - 1
      }
    }
    function list(set,    k, s) {
      s = ""
      for (k in set) s = s (s == "" ? "" : " ") k
      return s == "" ? "-" : s
    }
    END {
      printf "config %s: %d replies, %d differ (%d health, %d other", \
          config, replies, health + other, health, other
      if (other > 0) printf "; first other at reply %d", first
      printf ")\n"
      printf "  health keys dropped: %s\n", list(dropped)
      printf "  health keys added:   %s\n", list(added)
      printf "  health keys changed: %s\n", list(changed)
    }'
  fi
  diff -rq "$scratch/rev/dump/$config" "$scratch/work/dump/$config" \
      >"$scratch/$config.files.diff" 2>&1 || true
  if [ -s "$scratch/$config.files.diff" ]; then
    sed -e "s|$scratch/rev/dump/$config|rev|g" \
        -e "s|$scratch/work/dump/$config|work|g" -e 's/^/  files: /' \
        "$scratch/$config.files.diff"
  else
    echo "  files: identical"
  fi
done
echo "full diffs: $scratch/<config>.transcript.diff, $scratch/<config>.files.diff"
