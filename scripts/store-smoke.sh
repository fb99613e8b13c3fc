#!/usr/bin/env bash
# Results-warehouse smoke, run by CI's store-smoke job: boot a campaignd
# with -store, check that a spec in the retired adversaries/ks form is a
# 400, run a real campaign through it, query it back page by page (curl
# and the results CLI), check that a cache-warm re-run diffs empty
# against the original, then restart the daemon over the same
# warehouse with a tiny byte budget and a pin and check that GC reclaims
# cell bytes without losing the queryable stats. Finally, SIGKILL a
# cache-backed cmd/campaign run mid-grid and check that rerunning the
# identical command resumes from the cell cache to a byte-identical
# artifact. Everything runs on loopback with ephemeral state under
# mktemp.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="127.0.0.1:18082"
WORK="$(mktemp -d)"
DAEMON_PID=""
CAMPAIGN_PID=""

cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
  [ -n "$CAMPAIGN_PID" ] && kill -9 "$CAMPAIGN_PID" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== build"
go build -o "$WORK/campaignd" ./cmd/campaignd
go build -o "$WORK/results" ./cmd/results
go build -o "$WORK/campaign" ./cmd/campaign

wait_for() { # url, tries
  for _ in $(seq 1 "$2"); do
    curl -fsS -o /dev/null "$1" 2>/dev/null && return 0
    sleep 0.2
  done
  echo "timeout waiting for $1" >&2
  return 1
}

run_campaign() { # spec -> campaign id on stdout
  local id
  id=$(curl -fsS -d "$1" "http://$ADDR/campaigns" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
  [ -n "$id" ] || { echo "no campaign id in submit response" >&2; return 1; }
  local status=""
  for _ in $(seq 1 100); do
    status=$(curl -fsS "http://$ADDR/campaigns/$id" | sed -n 's/.*"status": "\([^"]*\)".*/\1/p' | head -1)
    [ "$status" = "done" ] && { echo "$id"; return 0; }
    [ "$status" = "failed" ] && { echo "campaign failed" >&2; return 1; }
    sleep 0.2
  done
  echo "campaign stuck in '$status'" >&2
  return 1
}

echo "== start daemon with a results warehouse (no budget: GC off)"
"$WORK/campaignd" -addr "$ADDR" -store "$WORK/warehouse" \
  >"$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!
wait_for "http://$ADDR/metrics" 50

echo "== a spec in the retired adversaries/ks form is a 400"
CODE=$(curl -sS -o "$WORK/legacy.json" -w '%{http_code}' \
  -d '{"adversaries":["random-tree"],"ks":[2],"ns":[16],"trials":5,"seed":7}' "http://$ADDR/campaigns")
if [ "$CODE" != 400 ] || ! grep -q 'scenario form' "$WORK/legacy.json"; then
  echo "legacy spec answered $CODE, want a 400 naming the scenario form:" >&2
  cat "$WORK/legacy.json" >&2
  exit 1
fi

echo "== run campaign"
SPEC='{"name":"store-smoke","scenarios":[{"adversary":"random-tree"},{"adversary":"random-path"}],"ns":[16,24],"trials":5,"seed":7}'
ID=$(run_campaign "$SPEC")
echo "   ingested as $ID"

echo "== paginated query-back (limit 2, walking cursors)"
ROWS=0
CURSOR=""
PAGES=0
while :; do
  URL="http://$ADDR/results?campaign=$ID&limit=2"
  [ -n "$CURSOR" ] && URL="$URL&cursor=$CURSOR"
  curl -fsS "$URL" >"$WORK/page.json"
  ROWS=$((ROWS + $(grep -c '"cell":' "$WORK/page.json" || true)))
  PAGES=$((PAGES + 1))
  CURSOR=$(sed -n 's/.*"next_cursor": *"\([^"]*\)".*/\1/p' "$WORK/page.json")
  [ -n "$CURSOR" ] || break
  [ "$PAGES" -gt 10 ] && { echo "cursor walk did not terminate" >&2; exit 1; }
done
[ "$ROWS" -eq 4 ] && [ "$PAGES" -eq 2 ] || {
  echo "paginated walk saw $ROWS rows in $PAGES pages, want 4 in 2" >&2
  exit 1
}

echo "== results CLI agrees"
"$WORK/results" -addr "http://$ADDR" -campaign "$ID" -format csv >"$WORK/rows.csv"
LINES=$(wc -l <"$WORK/rows.csv")
[ "$LINES" -eq 5 ] || { # header + 4 cells
  echo "results CLI emitted $LINES csv lines, want 5" >&2
  cat "$WORK/rows.csv" >&2
  exit 1
}

echo "== cache-warm re-run of the same spec: diff against the original is empty"
ID2=$(run_campaign "$SPEC")
curl -fsS "http://$ADDR/results/diff?a=$ID&b=$ID2" >"$WORK/diff.json"
grep -q '"identical": 4' "$WORK/diff.json" || {
  echo "warm re-run diff not identical:" >&2
  cat "$WORK/diff.json" >&2
  exit 1
}
grep -q '"entries": \[\]' "$WORK/diff.json" || {
  echo "warm re-run diff has entries:" >&2
  cat "$WORK/diff.json" >&2
  exit 1
}

echo "== run an unpinned campaign with its own cells (eviction fodder)"
# The warm re-run shares the pinned run's content addresses, so its
# cells are pin-protected too; GC needs a campaign with distinct cells
# to have something to reclaim.
SPEC3='{"name":"store-smoke-evict","scenarios":[{"adversary":"random-tree"}],"ns":[32],"trials":5,"seed":99}'
ID3=$(run_campaign "$SPEC3")
echo "   ingested as $ID3"

echo "== restart over the same warehouse: 1-byte budget, first run pinned"
kill "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""
"$WORK/campaignd" -addr "$ADDR" -store "$WORK/warehouse" \
  -store-budget 1 -store-gc-interval 1s -store-pin "$ID" \
  >"$WORK/daemon2.log" 2>&1 &
DAEMON_PID=$!
wait_for "http://$ADDR/metrics" 50

echo "== GC under the tiny budget reclaimed cell bytes"
GC_OK=""
for _ in $(seq 1 50); do
  curl -fsS "http://$ADDR/metrics" >"$WORK/metrics.prom"
  if grep -Eq '^store_gc_runs_total [1-9]' "$WORK/metrics.prom" &&
     grep -Eq '^store_gc_reclaimed_bytes_total [1-9]' "$WORK/metrics.prom"; then
    GC_OK=1
    break
  fi
  sleep 0.2
done
[ -n "$GC_OK" ] || {
  echo "GC never reclaimed bytes under a 1-byte budget" >&2
  grep '^store_' "$WORK/metrics.prom" >&2 || true
  exit 1
}

echo "== stats outlive the evicted cell bytes; the pin is recorded"
curl -fsS "http://$ADDR/results?campaign=$ID" >"$WORK/after-gc.json"
AFTER=$(grep -c '"cell":' "$WORK/after-gc.json")
[ "$AFTER" -eq 4 ] || {
  echo "only $AFTER rows queryable after restart + GC, want 4" >&2
  exit 1
}
"$WORK/results" -addr "http://$ADDR" -campaigns >"$WORK/campaigns.txt"
grep -E "^$ID\s.*\strue\s" "$WORK/campaigns.txt" >/dev/null || {
  echo "restarted daemon does not show $ID pinned:" >&2
  cat "$WORK/campaigns.txt" >&2
  exit 1
}

echo "== SIGKILL a cache-backed campaign mid-grid, rerun the identical command"
# One worker walks the cells in order: the n=8 cell lands in the cache
# within milliseconds, the larger cells keep the run busy for about a
# second after it.
GRID=(-adversaries random-tree,random-path -ns 8,256,512 -trials 1000 -seed 3 -workers 1 -format json)
cache_entries() { find "$1" -type f ! -name '.*' 2>/dev/null | wc -l; }
"$WORK/campaign" "${GRID[@]}" -cache "$WORK/cells" -out "$WORK/resumed.json" 2>/dev/null &
CAMPAIGN_PID=$!
for _ in $(seq 1 500); do
  [ "$(cache_entries "$WORK/cells")" -ge 1 ] && break
  sleep 0.01
done
[ "$(cache_entries "$WORK/cells")" -ge 1 ] || { echo "no cache entry appeared before the kill" >&2; exit 1; }
kill -9 "$CAMPAIGN_PID" || { echo "campaign finished before the kill" >&2; exit 1; }
wait "$CAMPAIGN_PID" 2>/dev/null || true
CAMPAIGN_PID=""
echo "   killed with $(cache_entries "$WORK/cells") cells cached"
"$WORK/campaign" "${GRID[@]}" -cache "$WORK/cells" -out "$WORK/resumed.json" 2>"$WORK/resume.err"
"$WORK/campaign" "${GRID[@]}" -cache "$WORK/fresh-cells" -out "$WORK/fresh.json" 2>/dev/null
cmp "$WORK/resumed.json" "$WORK/fresh.json" || {
  echo "resumed artifact differs from an uninterrupted run" >&2
  exit 1
}
FROM_CACHE=$(sed -n 's/.* \([0-9]*\) from cache$/\1/p' "$WORK/resume.err")
[ "${FROM_CACHE:-0}" -gt 0 ] || {
  echo "resumed run served nothing from the cache:" >&2
  cat "$WORK/resume.err" >&2
  exit 1
}
echo "   $(cat "$WORK/resume.err")"

echo "store smoke OK"
