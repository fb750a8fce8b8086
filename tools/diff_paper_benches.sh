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
# bench with each build's peak RSS (getrusage of the run, through
# python3), and the diff of each that differs; exits 0 when all are the
# same. The verdict reads stdout only.
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

# Runs <binary> with stdout to <out> and stderr to <err>, writes its peak
# RSS in MB to <rss> (getrusage(RUSAGE_CHILDREN) once it is reaped) and
# exits with its status. A child's peak includes the RSS it was forked
# with, so the launcher is python3 -S with os alone (about 5 MB); a bench
# smaller than that reads as that floor.
run_with_rss() {
  python3 -S - "$@" <<'EOF'
import os, sys
binary, out, err, rss = sys.argv[1:5]
pid = os.fork()
if pid == 0:
    try:
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        os.dup2(os.open(out, flags, 0o644), 1)
        os.dup2(os.open(err, flags, 0o644), 2)
        os.execv(binary, [binary])
    finally:
        os._exit(127)
_, status = os.waitpid(pid, 0)
import resource
kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
with open(rss, "w") as f:
    f.write("%.1f" % (kib / 1024.0))
sys.exit(os.waitstatus_to_exitcode(status))
EOF
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
    if ! run_with_rss "${dir}/bench/${bench}" "${WORK}/${bench}.${side}.raw" \
        "${WORK}/${bench}.${side}.err" "${WORK}/${bench}.${side}.rss"; then
      echo "FAIL  ${bench}: exited non-zero in the ${side} build"
      cat "${WORK}/${bench}.${side}.err"
      failed=1
    fi
    mask "${bench}" < "${WORK}/${bench}.${side}.raw" \
      > "${WORK}/${bench}.${side}"
  done
  rss="peak RSS $(cat "${WORK}/${bench}.parent.rss")"
  rss+=" -> $(cat "${WORK}/${bench}.change.rss") MB"
  if diff -u "${WORK}/${bench}.parent" "${WORK}/${bench}.change" \
      > "${WORK}/${bench}.diff"; then
    echo "same  ${bench}  ${rss}"
  else
    echo "DIFF  ${bench}  ${rss}"
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
