#!/usr/bin/env bash
# End-to-end smoke of the /v1 HTTP edge (ISSUE 8), run by the CI
# http-smoke job and fine to run locally:
#
#   tools/http_smoke.sh [path/to/campaign_server]
#
# Starts examples/campaign_server with --http_port --http_ingest, then
# drives the whole surface with curl: submit a campaign, pull its
# assignments, POST them back as completions (twice — the second send
# must classify 100% duplicates), poll status to done, check the
# listing filters and the Prometheus scrape. Every request must answer
# 2xx; the idempotency re-POST must deliver nothing.
set -euo pipefail

SERVER_BIN="${1:-./build/examples/campaign_server}"
PORT="${HTTP_SMOKE_PORT:-18080}"
BASE="http://127.0.0.1:${PORT}"
WORK="$(mktemp -d)"
SERVER_PID=""

cleanup() {
  [[ -n "${SERVER_PID}" ]] && kill "${SERVER_PID}" 2>/dev/null || true
  rm -rf "${WORK}"
}
trap cleanup EXIT

die() { echo "FAIL: $*" >&2; exit 1; }

# curl wrapper: body to stdout, dies unless the status is 2xx (or the
# explicitly expected code).
req() {
  local expect="$1" method="$2" target="$3" body="${4:-}"
  local out status
  out="${WORK}/resp"
  if [[ -n "${body}" ]]; then
    status=$(curl -sS -o "${out}" -w '%{http_code}' -X "${method}" \
      -d "${body}" "${BASE}${target}")
  else
    status=$(curl -sS -o "${out}" -w '%{http_code}' -X "${method}" \
      "${BASE}${target}")
  fi
  if [[ "${status}" != "${expect}" ]]; then
    die "${method} ${target}: got HTTP ${status}, want ${expect} " \
        "(body: $(cat "${out}"))"
  fi
  cat "${out}"
}

json_field() {  # json_field '<json>' <field>  -> number/string value
  python3 -c 'import json,sys; print(json.load(sys.stdin)[sys.argv[1]])' \
    "$2" <<<"$1"
}

[[ -x "${SERVER_BIN}" ]] || die "server binary not found: ${SERVER_BIN}"

"${SERVER_BIN}" --http_port="${PORT}" --http_ingest --campaigns=0 \
  --taggers=0 --n=120 --serve_seconds=120 --log_level=warn \
  >"${WORK}/server.log" 2>&1 &
SERVER_PID=$!

for _ in $(seq 1 100); do
  curl -sf "${BASE}/healthz" >/dev/null 2>&1 && break
  kill -0 "${SERVER_PID}" 2>/dev/null || {
    cat "${WORK}/server.log" >&2
    die "server exited before becoming healthy"
  }
  sleep 0.1
done
curl -sf "${BASE}/healthz" >/dev/null || die "server never became healthy"
echo "server up on :${PORT}"

# Submit a campaign through the edge.
SUBMIT=$(req 201 POST /v1/campaigns \
  '{"name":"smoke","strategy":"RR","budget":120,"seed":7}')
ID=$(json_field "${SUBMIT}" id)
echo "submitted campaign ${ID}"

# Tagger loop: pull assignments, POST them back, until done. Each
# pulled batch is kept so the idempotency re-POST below replays it.
DELIVERED=0
: >"${WORK}/batches"
for _ in $(seq 1 400); do
  TASKS=$(req 200 GET "/v1/campaigns/${ID}/tasks?max=64")
  BATCH=$(python3 - "$TASKS" <<'EOF'
import json, sys
tasks = json.loads(sys.argv[1])["tasks"]
print(json.dumps({"completions": tasks}) if tasks else "")
EOF
)
  if [[ -z "${BATCH}" ]]; then
    STATE=$(json_field "$(req 200 GET "/v1/campaigns/${ID}")" state)
    [[ "${STATE}" == "running" || "${STATE}" == "parked" ]] || break
    sleep 0.05
    continue
  fi
  echo "${BATCH}" >>"${WORK}/batches"
  RESULT=$(req 200 POST "/v1/campaigns/${ID}/completions" "${BATCH}")
  DELIVERED=$((DELIVERED + $(json_field "${RESULT}" delivered)))
done
STATE=$(json_field "$(req 200 GET "/v1/campaigns/${ID}")" state)
[[ "${STATE}" == "done" ]] || die "campaign ended ${STATE}, want done"
[[ "${DELIVERED}" -gt 0 ]] || die "no completions delivered"
echo "campaign done: ${DELIVERED} completions delivered"

# Idempotency: re-POST every batch; nothing may deliver twice.
while IFS= read -r BATCH; do
  RESULT=$(req 200 POST "/v1/campaigns/${ID}/completions" "${BATCH}")
  RE=$(json_field "${RESULT}" delivered)
  [[ "${RE}" == "0" ]] || die "re-POST delivered ${RE} completions twice"
done <"${WORK}/batches"
echo "idempotency: every re-POSTed batch classified as duplicates"

# Listing + filters.
TOTAL=$(json_field "$(req 200 GET '/v1/campaigns?limit=10')" total)
[[ "${TOTAL}" == "1" ]] || die "listing total ${TOTAL}, want 1"
TOTAL=$(json_field "$(req 200 GET '/v1/campaigns?state=done&search=smo')" \
  total)
[[ "${TOTAL}" == "1" ]] || die "filtered total ${TOTAL}, want 1"
TOTAL=$(json_field "$(req 200 GET '/v1/campaigns?state=running')" total)
[[ "${TOTAL}" == "0" ]] || die "running total ${TOTAL}, want 0"

# Rejections answer the right 4xx (req dies on anything else).
req 400 POST /v1/campaigns '{not json' >/dev/null
req 404 GET /v1/campaigns/999 >/dev/null
req 400 GET '/v1/campaigns?state=bogus' >/dev/null

# Prometheus scrape carries the edge series.
SCRAPE=$(req 200 GET /metrics)
grep -q 'incentag_http_requests_total' <<<"${SCRAPE}" ||
  die "scrape missing incentag_http_requests_total"
grep -q 'incentag_service_intake_delivered_total' <<<"${SCRAPE}" ||
  die "scrape missing intake counters"

echo "http smoke: OK"
