#!/usr/bin/env bash
# Runs every BENCH-emitting experiment binary and aggregates their json
# lines into one machine-readable report, stamped with the git revision
# the numbers were measured at.
#
#   tools/collect_bench.sh                      # full run -> BENCH_PR10.json
#   tools/collect_bench.sh --quick              # CI sizing, same schema
#   tools/collect_bench.sh --build-dir build-x --output /tmp/bench.json
#
# BENCH emitters (each prints lines of the form `BENCH{...json...}`):
#   bench_f2_throughput   shard-set scaling sweep + batch-size sweep
#   bench_a5_checkpoint_sizes   checkpoint envelope sizes
#   bench_f4_service_qps  multi-tenant service closed-loop load harness
#   bench_f5_overload     stall recovery time
#   bench_f6_hotpath      batch-vs-scalar and SIMD-vs-scalar speedups
#   bench_f7_net_load     TCP front-end connection sweep (qps, p99, shed)
#   bench_f8_wire         text-vs-binary wire framing (docs/PROTOCOL.md)
#   bench_f9_coldtier     paged cold tier get latency vs a full restore
#   bench_f10_durability  WAL fsync-policy qps/p99 + replay throughput
#
# The aggregate is a single json object: {"git_sha", "quick", "host",
# "results"} where results is the array of BENCH payloads in emission
# order and host records the capabilities the numbers were measured
# under (cores, ISA level, whether the build was -march=native) — the
# fields needed to tell a scaling result from an oversubscription
# artifact. A ctest registration (`collect_bench_quick`) runs the
# --quick variant so the pipeline breaks loudly if a bench stops
# emitting parseable lines.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build"
output="${repo_root}/BENCH_PR10.json"
quick=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) quick=1; shift ;;
    --build-dir) build_dir="$2"; shift 2 ;;
    --output) output="$2"; shift 2 ;;
    -h|--help)
      sed -n '2,24p' "$0" | sed 's/^# \{0,1\}//'
      exit 0
      ;;
    *) echo "unknown flag: $1" >&2; exit 2 ;;
  esac
done

# Every emitter is checked up front and ALL absentees are listed before
# the nonzero exit — a partial build should fail with the full shopping
# list, not one binary per rerun.
bench_dir="${build_dir}/bench"
missing=()
for binary in bench_f2_throughput bench_a5_checkpoint_sizes \
              bench_f4_service_qps bench_f5_overload bench_f6_hotpath \
              bench_f7_net_load bench_f8_wire bench_f9_coldtier \
              bench_f10_durability; do
  if [[ ! -x "${bench_dir}/${binary}" ]]; then
    missing+=("${bench_dir}/${binary}")
  fi
done
if [[ ${#missing[@]} -gt 0 ]]; then
  echo "missing ${#missing[@]} bench emitter(s); build the repo first:" >&2
  printf '  %s\n' "${missing[@]}" >&2
  exit 1
fi

# Flag sets: --quick shrinks the work, never the schema.
if [[ "${quick}" -eq 1 ]]; then
  f2_flags=(--shards 2)
  f4_flags=(--users 10000 --ops 50000 --threads 2)
  f5_flags=(--stall-ms 100 --recovery-ms 500)
  f6_flags=(--quick)
  f7_flags=(--quick)
  f8_flags=(--quick)
  f9_flags=(--quick)
  f10_flags=(--quick)
else
  f2_flags=()
  f4_flags=()
  f5_flags=()
  f6_flags=()
  f7_flags=()
  f8_flags=()
  f9_flags=()
  f10_flags=()
fi

lines_file="$(mktemp)"
trap 'rm -f "${lines_file}"' EXIT

run_bench() {
  # Keep only the BENCH lines; everything else (google-benchmark tables,
  # progress chatter) goes to stderr so interactive runs stay readable.
  "$@" | tee /dev/stderr | grep '^BENCH{' >> "${lines_file}" || {
    echo "$1 emitted no BENCH lines" >&2
    exit 1
  }
}

# --benchmark_filter that matches nothing: only the sweep's BENCH lines.
run_bench "${bench_dir}/bench_f2_throughput" \
    --benchmark_filter='^$' "${f2_flags[@]+"${f2_flags[@]}"}"
run_bench "${bench_dir}/bench_a5_checkpoint_sizes"
run_bench "${bench_dir}/bench_f4_service_qps" \
    "${f4_flags[@]+"${f4_flags[@]}"}"
run_bench "${bench_dir}/bench_f5_overload" \
    "${f5_flags[@]+"${f5_flags[@]}"}"
run_bench "${bench_dir}/bench_f6_hotpath" \
    "${f6_flags[@]+"${f6_flags[@]}"}"
run_bench "${bench_dir}/bench_f7_net_load" \
    "${f7_flags[@]+"${f7_flags[@]}"}"
run_bench "${bench_dir}/bench_f8_wire" \
    "${f8_flags[@]+"${f8_flags[@]}"}"
run_bench "${bench_dir}/bench_f9_coldtier" \
    "${f9_flags[@]+"${f9_flags[@]}"}"
run_bench "${bench_dir}/bench_f10_durability" \
    "${f10_flags[@]+"${f10_flags[@]}"}"

# HEAD sha, with a -dirty suffix when the numbers were measured from an
# uncommitted tree (the honest stamp for a pre-commit run).
git_sha="$(git -C "${repo_root}" rev-parse HEAD 2>/dev/null || echo unknown)"
if ! git -C "${repo_root}" diff --quiet HEAD 2>/dev/null; then
  git_sha="${git_sha}-dirty"
fi

# Host capability stamp: every number in this file was measured under
# these cores / this ISA / this build tuning, and a curve collected on
# 1 core reads very differently from the same curve on 16.
cores="$(nproc 2>/dev/null || echo 1)"
simd=scalar
if grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
  simd=avx2
fi
native=false
if grep -q '^HIMPACT_NATIVE:BOOL=ON$' "${build_dir}/CMakeCache.txt" \
    2>/dev/null; then
  native=true
fi

{
  printf '{\n'
  printf '  "git_sha": "%s",\n' "${git_sha}"
  printf '  "quick": %s,\n' "$([[ ${quick} -eq 1 ]] && echo true || echo false)"
  printf '  "host": {"hardware_concurrency": %s, "simd": "%s", "himpact_native": %s},\n' \
      "${cores}" "${simd}" "${native}"
  printf '  "results": [\n'
  # Strip the BENCH prefix and join the payloads with commas.
  sed -e 's/^BENCH//' -e 's/^/    /' "${lines_file}" | sed '$!s/$/,/'
  printf '  ]\n'
  printf '}\n'
} > "${output}"

count="$(wc -l < "${lines_file}")"
echo "wrote ${output} (${count} results @ ${git_sha})"
