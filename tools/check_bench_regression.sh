#!/usr/bin/env bash
# Compares quick runs of the perf-sensitive benches against the newest
# committed baseline (highest-numbered BENCH_*.json in the repo root,
# overridable with --baseline) and reports per-metric drift.
#
#   tools/check_bench_regression.sh                  # warn-only (exit 0)
#   tools/check_bench_regression.sh --strict         # regressions fail
#   tools/check_bench_regression.sh --build-dir build-x --baseline b.json
#   tools/check_bench_regression.sh --tolerance 0.5  # 50% slack
#
# Gate table (one row per checked metric family):
#   f6_batch_vs_scalar  per-sketch batch speedup       lower  = regression
#   f7_net_load         per-point client shed rate     higher = regression
#   f8_wire_speedup     framing binary-vs-text ratio   lower  = regression,
#                       plus an absolute floor: framing mode must stay
#                       >= 1.5x regardless of what the baseline says
#   f10_replay          WAL replay events/s            lower  = regression
#                       (non-gating even under --strict: replay speed is
#                       a recovery-time tripwire, not a serving-path SLO,
#                       and the bench is skipped when not built)
#
# Quick runs are noisy and CI machines differ, so the default mode only
# warns: a regression prints a WARN line per metric and the script still
# exits 0. `--strict` turns any WARN into exit 1 for local perf work.
# A missing baseline or bench binary exits 77 (the ctest SKIP code) so
# fresh checkouts and partial builds skip instead of failing. Metrics
# whose family is absent from the baseline (older aggregates) are
# skipped individually; the f8 absolute floor always applies.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build"
baseline=""
tolerance=0.4
strict=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --strict) strict=1; shift ;;
    --build-dir) build_dir="$2"; shift 2 ;;
    --baseline) baseline="$2"; shift 2 ;;
    --tolerance) tolerance="$2"; shift 2 ;;
    -h|--help)
      sed -n '2,28p' "$0" | sed 's/^# \{0,1\}//'
      exit 0
      ;;
    *) echo "unknown flag: $1" >&2; exit 2 ;;
  esac
done

# Default baseline: the newest committed aggregate, so a PR that lands a
# fresh BENCH_PRn.json is measured against it automatically instead of a
# hard-coded (and silently aging) predecessor.
if [[ -z "${baseline}" ]]; then
  baseline="$(ls "${repo_root}"/BENCH_*.json 2>/dev/null | sort -V | tail -n 1 || true)"
  if [[ -z "${baseline}" ]]; then
    echo "SKIP: no BENCH_*.json baseline in ${repo_root}" >&2
    exit 77
  fi
fi

for binary in bench_f6_hotpath bench_f7_net_load bench_f8_wire; do
  if [[ ! -x "${build_dir}/bench/${binary}" ]]; then
    echo "SKIP: ${build_dir}/bench/${binary} not built" >&2
    exit 77
  fi
done
if [[ ! -f "${baseline}" ]]; then
  echo "SKIP: baseline ${baseline} not found" >&2
  exit 77
fi
echo "baseline: ${baseline}"

current="$(mktemp)"
trap 'rm -f "${current}"' EXIT
"${build_dir}/bench/bench_f6_hotpath" --quick | grep '^BENCH{' > "${current}"
"${build_dir}/bench/bench_f7_net_load" --quick | grep '^BENCH{' >> "${current}"
"${build_dir}/bench/bench_f8_wire" --quick | grep '^BENCH{' >> "${current}"
# The durability bench is optional (older checkouts): its rows are
# informational and never block.
if [[ -x "${build_dir}/bench/bench_f10_durability" ]]; then
  "${build_dir}/bench/bench_f10_durability" --quick | grep '^BENCH{' >> "${current}"
fi

# Extract "key":value pairs from a json-ish line without a json tool.
field() {
  sed -n 's/.*"'"$2"'":"\{0,1\}\([^,"}]*\)"\{0,1\}[,}].*/\1/p' <<< "$1"
}

# Baseline lines live inside the aggregate's "results" array, one payload
# per line (collect_bench.sh's formatting), so grep recovers them intact.
baseline_metric() {  # baseline_metric <bench> <key-field> <key> <value-field>
  local line
  line="$(grep '"bench":"'"$1"'"' "${baseline}" | grep '"'"$2"'":"\{0,1\}'"$3"'[,"}]' | head -n 1)"
  [[ -n "${line}" ]] || return 1
  field "${line}" "$4"
}

warns=0
check() {  # check <label> <baseline-value> <current-value>
  local label="$1" base="$2" cur="$3"
  [[ -n "${base}" && -n "${cur}" ]] || return 0
  # Regression when current < baseline * (1 - tolerance).
  if awk -v b="${base}" -v c="${cur}" -v t="${tolerance}" \
         'BEGIN { exit !(c < b * (1 - t)) }'; then
    echo "WARN: ${label} regressed: ${cur} vs baseline ${base} (tolerance $(awk -v t="${tolerance}" 'BEGIN { printf "%.0f%%", t * 100 }'))"
    warns=$((warns + 1))
  else
    echo "ok: ${label} ${cur} (baseline ${base})"
  fi
}

check_upper() {  # check_upper <label> <baseline-value> <current-value>
  # For metrics where higher is worse (shed rate). Multiplicative slack
  # plus a small absolute band, since healthy baselines sit near zero.
  local label="$1" base="$2" cur="$3"
  [[ -n "${base}" && -n "${cur}" ]] || return 0
  if awk -v b="${base}" -v c="${cur}" -v t="${tolerance}" \
         'BEGIN { exit !(c > b * (1 + t) + 0.02) }'; then
    echo "WARN: ${label} regressed: ${cur} vs baseline ${base} (bound $(awk -v b="${base}" -v t="${tolerance}" 'BEGIN { printf "%.4f", b * (1 + t) + 0.02 }'))"
    warns=$((warns + 1))
  else
    echo "ok: ${label} ${cur} (baseline ${base})"
  fi
}

check_info() {  # check_info <label> <baseline-value> <current-value>
  # Like check(), but informational: a drop prints a note and never
  # counts toward the strict gate (recovery speed is not a serving SLO).
  local label="$1" base="$2" cur="$3"
  [[ -n "${base}" && -n "${cur}" ]] || return 0
  if awk -v b="${base}" -v c="${cur}" -v t="${tolerance}" \
         'BEGIN { exit !(c < b * (1 - t)) }'; then
    echo "note: ${label} slower than baseline: ${cur} vs ${base} (non-gating)"
  else
    echo "ok: ${label} ${cur} (baseline ${base})"
  fi
}

check_floor() {  # check_floor <label> <floor> <current-value>
  local label="$1" floor="$2" cur="$3"
  [[ -n "${cur}" ]] || return 0
  if awk -v f="${floor}" -v c="${cur}" 'BEGIN { exit !(c < f) }'; then
    echo "WARN: ${label} below absolute floor: ${cur} < ${floor}"
    warns=$((warns + 1))
  else
    echo "ok: ${label} ${cur} (floor ${floor})"
  fi
}

while IFS= read -r line; do
  bench_name="$(field "${line}" bench)"
  case "${bench_name}" in
    f6_batch_vs_scalar)
      sketch="$(field "${line}" sketch)"
      base="$(baseline_metric f6_batch_vs_scalar sketch "${sketch}" speedup || true)"
      check "batch speedup [${sketch}]" "${base}" "$(field "${line}" speedup)"
      ;;
    f7_net_load)
      connections="$(field "${line}" connections)"
      base="$(baseline_metric f7_net_load connections "${connections}" shed_rate || true)"
      check_upper "net shed rate [${connections} conns]" "${base}" \
          "$(field "${line}" shed_rate)"
      ;;
    f8_wire_speedup)
      mode="$(field "${line}" mode)"
      depth="$(field "${line}" depth)"
      ratio="$(field "${line}" binary_vs_text)"
      base="$(baseline_metric f8_wire_speedup mode "\"${mode}\"" binary_vs_text || true)"
      check "wire binary/text [${mode} depth ${depth}]" "${base}" "${ratio}"
      if [[ "${mode}" == "framing" ]]; then
        check_floor "wire framing ratio [depth ${depth}]" 1.5 "${ratio}"
      fi
      ;;
    f10_replay)
      base="$(baseline_metric f10_replay bench f10_replay replay_events_per_s || true)"
      check_info "WAL replay throughput (events/s)" "${base}" \
          "$(field "${line}" replay_events_per_s)"
      ;;
  esac
done < "${current}"

if [[ "${warns}" -gt 0 ]]; then
  echo "${warns} metric(s) outside baseline (quick mode is noisy; rerun full-size before reverting)"
  [[ "${strict}" -eq 1 ]] && exit 1
fi
exit 0
