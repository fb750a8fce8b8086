#!/usr/bin/env bash
# Runs every paper bench (bench_fig*, bench_table*, bench_sec5_*,
# bench_ext_*) at its default flags in two build trees and diffs their
# stdout, to show that a change moves no figure or table:
#
#   tools/diff_paper_benches.sh <parent_build> <change_build>
#
# Each argument is a CMake build directory (the benches live in its
# bench/ subdirectory). Only the wall-clock cells of
# bench_fig6g_runtime_vs_budget and bench_fig6h_runtime_vs_n (numbers
# ending in "s") are masked; any other difference, a bench present in one
# build only, or a non-zero exit fails the script. Prints one line per
# bench and the diff of each that differs; exits 0 when all are the same.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <parent_build> <change_build>" >&2
  exit 2
fi
PARENT="$1"
CHANGE="$2"
WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT

paper_benches() {
  local dir="$1/bench"
  for path in "${dir}"/bench_fig* "${dir}"/bench_table* \
              "${dir}"/bench_sec5_* "${dir}"/bench_ext_*; do
    [[ -x "${path}" ]] && basename "${path}"
  done | sort
}

# Masks the timing cells of the two runtime figures; others pass through.
mask() {
  case "$1" in
    bench_fig6g_runtime_vs_budget | bench_fig6h_runtime_vs_n)
      sed -E 's/[0-9]+\.[0-9]+s\b/<wall>/g' ;;
    *) cat ;;
  esac
}

paper_benches "${PARENT}" > "${WORK}/parent.list"
paper_benches "${CHANGE}" > "${WORK}/change.list"
failed=0
if ! diff -u "${WORK}/parent.list" "${WORK}/change.list" \
    > "${WORK}/list.diff"; then
  echo "FAIL: the two builds hold different paper benches:"
  cat "${WORK}/list.diff"
  failed=1
fi

count=0
while read -r bench; do
  [[ -x "${PARENT}/bench/${bench}" ]] || continue
  count=$((count + 1))
  for side in parent change; do
    if [[ "${side}" == parent ]]; then dir="${PARENT}"; else dir="${CHANGE}"; fi
    if ! "${dir}/bench/${bench}" > "${WORK}/${bench}.${side}.raw" \
        2> "${WORK}/${bench}.${side}.err"; then
      echo "FAIL  ${bench}: exited non-zero in the ${side} build"
      cat "${WORK}/${bench}.${side}.err"
      failed=1
    fi
    mask "${bench}" < "${WORK}/${bench}.${side}.raw" \
      > "${WORK}/${bench}.${side}"
  done
  if diff -u "${WORK}/${bench}.parent" "${WORK}/${bench}.change" \
      > "${WORK}/${bench}.diff"; then
    echo "same  ${bench}"
  else
    echo "DIFF  ${bench}"
    cat "${WORK}/${bench}.diff"
    failed=1
  fi
done < "${WORK}/change.list"

echo "${count} paper benches compared"
if [[ "${failed}" -ne 0 ]]; then
  echo "FAIL: the builds differ"
  exit 1
fi
echo "OK: no stdout difference"
