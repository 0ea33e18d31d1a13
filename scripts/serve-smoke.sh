#!/usr/bin/env bash
# Serve smoke: boot riskrouted on a random port with a reduced world, route,
# explain (diffing the GeoJSON against internal/serve/testdata's golden),
# hot-swap a Sandy advisory through POST /v1/advisory, and check the
# observability surface.
#
# Runs in the current directory, which must hold a ./riskrouted build and
# internal/serve/testdata/explain_golden.geojson, and leaves each answer it
# fetched there. CI runs it from the checkout root; `make smoke` runs it in
# .smoke/.
set -euo pipefail
# Stop a daemon that a failed check left running.
trap 'kill ${DAEMON:-} 2>/dev/null || true' EXIT
./riskrouted -addr 127.0.0.1:0 -networks Sprint -blocks 4000 \
  -event-scale 0.03 -log off > boot.out 2> boot.err &
DAEMON=$!
for i in $(seq 1 60); do
  grep -q listening boot.out && break
  sleep 1
done
BASE=$(sed -n 's/.*listening on \(http:[^ ]*\).*/\1/p' boot.out)
test -n "$BASE" || { cat boot.out boot.err; exit 1; }
for i in $(seq 1 30); do
  curl -sf "$BASE/v1/readyz" > ready.json && break
  sleep 1
done
GEN0=$(grep -o '"generation": *[0-9]*' ready.json | grep -o '[0-9]*')
echo "ready at generation $GEN0"
curl -sf "$BASE/v1/route?network=Sprint&from=Atlanta&to=Seattle" > route0.json
grep -q '"bit_risk_miles"' route0.json
# The repeat is a cache hit: the stored body is the first answer
# byte for byte, with only "cached" flipped to true.
curl -sf "$BASE/v1/route?network=Sprint&from=Atlanta&to=Seattle" > route0-cached.json
grep -q '"cached": true' route0-cached.json
sed 's/"cached": true/"cached": false/' route0-cached.json | diff route0.json -

# Attribution surface, probed BEFORE the advisory swap: the
# checked-in golden fixture is a generation-1 body, so the byte
# diff below only holds against the freshly booted world.
curl -sf "$BASE/v1/route?network=Sprint&from=Atlanta&to=Seattle&explain=1" > explain0.json
grep -q '"reconciled": *true' explain0.json
grep -q '"base_risk"' explain0.json
curl -sf "$BASE/v1/route?network=Sprint&from=Atlanta&to=Seattle&explain=1&format=geojson" > explain0.geojson
diff internal/serve/testdata/explain_golden.geojson explain0.geojson
echo "explain GeoJSON matches golden fixture byte-for-byte"
curl -sf "$BASE/v1/edges/top?network=Sprint&k=5" > edges.json
grep -q '"edges"' edges.json
grep -q '"risk"' edges.json
curl -sf "$BASE/debug/hazard?lat=33.749&lon=-84.388" > hazard.json
grep -q '"hist"' hazard.json
grep -q '"sources"' hazard.json

./riskrouted -emit-advisory Sandy > sandy.txt
curl -sf -X POST --data-binary @sandy.txt "$BASE/v1/advisory" > swap.json
GEN1=$(grep -o '"generation": *[0-9]*' swap.json | grep -o '[0-9]*')
echo "swapped to generation $GEN1"
test "$GEN1" -gt "$GEN0"
curl -sf "$BASE/v1/route?network=Sprint&from=Atlanta&to=Seattle" > route1.json
grep -q '"storm": *"SANDY"' route1.json
grep -q "\"generation\": *$GEN1" route1.json
# The endpoint applies the advisory feed's plausibility gate: a
# copy edited to 900 mph winds still parses, but it is refused
# with a 400 naming the field, and generation GEN1 keeps serving.
sed -E 's/WINDS ARE NEAR [0-9]+ MPH/WINDS ARE NEAR 900 MPH/' sandy.txt > implausible.txt
grep -q 'WINDS ARE NEAR 900 MPH' implausible.txt
CODE=$(curl -s -o implausible.json -w '%{http_code}' -X POST \
  --data-binary @implausible.txt "$BASE/v1/advisory")
test "$CODE" = 400
grep -q 'maximum winds' implausible.json
curl -sf "$BASE/v1/readyz" > ready1.json
grep -q "\"generation\": *$GEN1" ready1.json

# Observability surface: every response carries X-Request-Id, the
# exposition endpoint serves well-formed families, the SLO document
# reports both burn-rate windows, and the swap above landed on the
# generation timeline.
curl -sfD headers.txt "$BASE/v1/healthz" > /dev/null
grep -qi '^x-request-id: [0-9a-f]\{16\}' headers.txt
# An inbound ID is echoed only when it is 1-128 visible ASCII
# bytes; a 4 KB one is replaced by a fresh 16-hex ID.
curl -sfD echo.txt -H 'X-Request-Id: smoke-trace-1' "$BASE/v1/healthz" > /dev/null
tr -d '\r' < echo.txt | grep -qix 'x-request-id: smoke-trace-1'
LONG_ID=$(head -c 4096 /dev/zero | tr '\0' x)
curl -sfD long.txt -H "X-Request-Id: $LONG_ID" "$BASE/v1/healthz" > /dev/null
tr -d '\r' < long.txt | grep -qiE '^x-request-id: [0-9a-f]{16}$'
curl -sf "$BASE/metrics" > metrics.txt
grep -q '^# TYPE serve_requests_total_route counter' metrics.txt
grep -q '^serve_request_seconds_all_bucket{le="+Inf"}' metrics.txt
grep -q '^serve_generation ' metrics.txt
curl -sf "$BASE/v1/slo" > slo.json
grep -q '"window": *"5m"' slo.json
grep -q '"window": *"1h"' slo.json
grep -q '"error_burn_rate"' slo.json
curl -sf "$BASE/v1/generations" > generations.json
grep -q "\"generation\": *$GEN1" generations.json
grep -q '"rebuild_seconds"' generations.json
kill -TERM $DAEMON
wait $DAEMON
