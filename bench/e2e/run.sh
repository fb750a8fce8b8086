#!/usr/bin/env bash
# End-to-end fleet benchmark: builds bench/e2e in Release (into build-e2e/,
# git-ignored) and runs each workload in its own process.
#
#   bench/e2e/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
#                    [--smoke]
#
# Flags also take the --flag=value form. Without --workload every workload
# runs. Each prints `<workload> <metric> <value> <unit>` lines and ends
# with one JSON result line; the full documents land in
# build-e2e/results/ (merged into one when several workloads ran).
# --trace runs the traced variant (per-layer metrics, Chrome trace);
# --smoke uses tiny sizes and checks plumbing only. See README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "${here}/../.." && pwd)"
build="${root}/build-e2e"

workload=""
seed=1
seconds=20
trace=0
smoke=0
while [[ $# -gt 0 ]]; do
  arg="$1"
  shift
  case "${arg}" in
    --workload=*) workload="${arg#*=}" ;;
    --seed=*) seed="${arg#*=}" ;;
    --seconds=*) seconds="${arg#*=}" ;;
    --trace=*) trace="${arg#*=}" ;;
    --workload | --seed | --seconds)
      [[ $# -gt 0 ]] || { echo "run.sh: ${arg} needs a value" >&2; exit 2; }
      declare "${arg#--}=$1"
      shift
      ;;
    --trace)
      trace=1
      if [[ $# -gt 0 && ( "$1" == 0 || "$1" == 1 ) ]]; then
        trace="$1"
        shift
      fi
      ;;
    --smoke) smoke=1 ;;
    *) echo "run.sh: unknown argument ${arg}" >&2; exit 2 ;;
  esac
done
[[ "${seed}" =~ ^[0-9]+$ ]] ||
  { echo "run.sh: bad --seed ${seed}" >&2; exit 2; }
[[ "${trace}" == 0 || "${trace}" == 1 ]] ||
  { echo "run.sh: bad --trace ${trace}" >&2; exit 2; }

if [[ ! -f "${root}/CMakeLists.txt" || ! -d "${root}/src" ]]; then
  echo "run.sh: no incentag sources at ${root}; nothing to benchmark" >&2
  exit 2
fi

# Build output goes to stderr: stdout ends with the result line.
if [[ ! -f "${build}/CMakeCache.txt" ]]; then
  cmake -S "${here}" -B "${build}" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "${build}" -j "$(nproc)" >&2

if [[ -n "${workload}" ]]; then
  workloads=("${workload}")
else
  workloads=(fleet_inline fleet_durable http_ingest http_mixed)
fi
extra=()
suffix=""
if [[ "${smoke}" == 1 ]]; then
  extra+=(--smoke)
  trace=1
  seconds=0.2
  suffix="-smoke"
elif [[ "${trace}" == 1 ]]; then
  suffix="-trace"
fi
sha=unknown
if [[ -e "${root}/.git" ]]; then
  sha="$(git -C "${root}" describe --always --dirty --abbrev=40 2> /dev/null ||
    echo unknown)"
fi
mkdir -p "${build}/results"

status=0
docs=()
for w in "${workloads[@]}"; do
  work="${build}/work/${w}-$$"
  doc="${build}/results/${w}-seed${seed}${suffix}.json"
  rm -rf "${work}" "${doc}"
  mkdir -p "${work}"
  "${build}/e2e_bench" --workload="${w}" --seed="${seed}" \
    --seconds="${seconds}" --trace="${trace}" --work_dir="${work}" \
    --out="${doc}" --trace_out="${build}/results/${w}-seed${seed}.trace.json" \
    --benchmark_json="${root}/BENCHMARK.json" --git_sha="${sha}" \
    ${extra[@]+"${extra[@]}"} || status=$?
  rm -rf "${work}"
  docs+=("${doc}")
done

if [[ ${#workloads[@]} -gt 1 ]]; then
  merged="${build}/results/e2e-seed${seed}${suffix}.json"
  python3 - "${merged}" "${docs[@]}" << 'EOF'
import json, os, sys
out, docs = sys.argv[1], sys.argv[2:]
merged = {"workloads": {}}
for path in docs:
    if os.path.exists(path):
        with open(path) as f:
            doc = json.load(f)
        merged["workloads"][doc["workload"]] = doc
        merged.setdefault("machine", doc["machine"])
with open(out, "w") as f:
    json.dump(merged, f, indent=1)
    f.write("\n")
EOF
  echo "# wrote ${merged}" >&2
fi
exit "${status}"
