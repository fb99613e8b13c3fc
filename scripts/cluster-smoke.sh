#!/usr/bin/env bash
# Two-binary cluster smoke with observability checks, run by CI's
# cluster-smoke job: start a coordinator daemon and one remote worker,
# run a real campaign through them, then verify the fleet is observable —
# /metrics on both processes parses under scripts/promcheck, the
# coordinator's counters reflect the work, and /cluster/workers lists the
# worker. Everything runs on loopback with ephemeral state under mktemp.
set -euo pipefail

cd "$(dirname "$0")/.."

COORD_ADDR="127.0.0.1:18080"
WORKER_METRICS="127.0.0.1:19091"
WORK="$(mktemp -d)"
COORD_PID=""
WORKER_PID=""

cleanup() {
  [ -n "$WORKER_PID" ] && kill "$WORKER_PID" 2>/dev/null || true
  [ -n "$COORD_PID" ] && kill "$COORD_PID" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== build"
go build -o "$WORK/campaignd" ./cmd/campaignd
go build -o "$WORK/promcheck" ./scripts/promcheck

echo "== start coordinator on $COORD_ADDR"
"$WORK/campaignd" -addr "$COORD_ADDR" -cluster -cache "$WORK/cells" \
  >"$WORK/coord.log" 2>&1 &
COORD_PID=$!

echo "== start worker (metrics on $WORKER_METRICS)"
"$WORK/campaignd" -worker -join "http://$COORD_ADDR" -poll 50ms \
  -metrics "$WORKER_METRICS" >"$WORK/worker.log" 2>&1 &
WORKER_PID=$!

wait_for() { # url, tries
  for _ in $(seq 1 "$2"); do
    curl -fsS -o /dev/null "$1" 2>/dev/null && return 0
    sleep 0.2
  done
  echo "timeout waiting for $1" >&2
  return 1
}
wait_for "http://$COORD_ADDR/metrics" 50
wait_for "http://$WORKER_METRICS/metrics" 50

echo "== submit campaign"
SPEC='{"name":"smoke","scenarios":[{"adversary":"random-tree"},{"adversary":"random-path"}],"ns":[16,24],"trials":5,"seed":7}'
ID=$(curl -fsS -d "$SPEC" "http://$COORD_ADDR/campaigns" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$ID" ] || { echo "no campaign id in submit response" >&2; exit 1; }

echo "== wait for campaign $ID"
for _ in $(seq 1 100); do
  STATUS=$(curl -fsS "http://$COORD_ADDR/campaigns/$ID" | sed -n 's/.*"status": "\([^"]*\)".*/\1/p' | head -1)
  [ "$STATUS" = "done" ] && break
  [ "$STATUS" = "failed" ] && { echo "campaign failed" >&2; exit 1; }
  sleep 0.2
done
[ "$STATUS" = "done" ] || { echo "campaign stuck in '$STATUS'" >&2; exit 1; }

echo "== scrape + validate exposition (coordinator and worker)"
curl -fsS "http://$COORD_ADDR/metrics" >"$WORK/coord.prom"
curl -fsS "http://$WORKER_METRICS/metrics" >"$WORK/worker.prom"
"$WORK/promcheck" "$WORK/coord.prom" "$WORK/worker.prom"

echo "== assert counters moved"
require() { # file, pattern, label
  grep -Eq "$2" "$1" || {
    echo "missing: $3 ($2) in $1" >&2
    exit 1
  }
}
require "$WORK/coord.prom" '^campaign_jobs_completed_total [1-9]' "coordinator completed jobs"
require "$WORK/coord.prom" '^server_http_requests_total\{route="POST /campaigns"' "request counter"
require "$WORK/coord.prom" '^campaign_cache_requests_total\{backend="dir"' "cache counters"

echo "== /cluster/workers lists the worker"
curl -fsS "http://$COORD_ADDR/cluster/workers" >"$WORK/workers.json"
grep -q '"worker"' "$WORK/workers.json" || {
  echo "no workers listed:" >&2
  cat "$WORK/workers.json" >&2
  exit 1
}

# If the worker executed any cell, its own scrape shows it. Not required
# for success: small grids can finish locally before the first lease.
if grep -Eq '^campaign_jobs_completed_total [1-9]' "$WORK/worker.prom"; then
  echo "   (worker executed leased cells)"
fi

echo "== dashboard responds"
curl -fsS "http://$COORD_ADDR/" >"$WORK/index.html"
grep -q "dyntreecast fleet" "$WORK/index.html" || {
  echo "dashboard did not render" >&2
  exit 1
}

echo "cluster smoke OK"
