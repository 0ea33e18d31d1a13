#!/usr/bin/env bash
# Bake smoke: bake a world snapshot with riskroute, boot riskrouted from a
# full fit and from the snapshot, require byte-identical routes and
# explanations, then require a corrupt snapshot to fall back to the fit.
#
# Runs in the current directory, which must hold ./riskroute_cli (a
# cmd/riskroute build) and ./riskrouted, and leaves the snapshot, logs and
# answers there. CI runs it from the checkout root; `make smoke` runs it in
# .smoke/.
set -euo pipefail
# Stop a daemon that a failed check left running.
trap 'kill ${DAEMON:-} 2>/dev/null || true' EXIT
WORLD='-networks Sprint -blocks 4000 -event-scale 0.03'
ROUTE='/v1/route?network=Sprint&from=Atlanta&to=Seattle'
boot() { # boot <out> [extra flags...]
  local out=$1; shift
  ./riskrouted -addr 127.0.0.1:0 $WORLD -log off "$@" > "$out" 2>&1 &
  DAEMON=$!
  for i in $(seq 1 60); do grep -q listening "$out" && break; sleep 1; done
  BASE=$(sed -n 's/.*listening on \(http:[^ ]*\).*/\1/p' "$out")
  test -n "$BASE" || { cat "$out"; exit 1; }
  for i in $(seq 1 30); do
    curl -sf "$BASE/v1/readyz" > ready.json && break; sleep 1
  done
}

./riskroute_cli bake -o world.rrws $WORLD | tee bake.out
grep -q 'digest' bake.out

# Reference: full fit boot.
boot fit.out
grep -q '"path": *"fit"' ready.json
curl -sf "$BASE$ROUTE" > route-fit.json
curl -sf "$BASE$ROUTE&explain=1" > explain-fit.json
kill -TERM $DAEMON && wait $DAEMON

# Snapshot boot: must report the snapshot path, load in
# milliseconds, and answer byte-identically.
boot snap.out -world-snapshot world.rrws
grep -q 'booted from snapshot world.rrws' snap.out
grep -q '"path": *"snapshot"' ready.json
grep -q '"snapshot_digest"' ready.json
curl -sf "$BASE$ROUTE" > route-snap.json
curl -sf "$BASE$ROUTE&explain=1" > explain-snap.json
kill -TERM $DAEMON && wait $DAEMON
diff route-fit.json route-snap.json
diff explain-fit.json explain-snap.json
echo "snapshot boot serves byte-identical routes"

# A corrupt snapshot must fall back to the full fit, degraded but
# serving.
head -c 200 world.rrws > corrupt.rrws
boot fallback.out -world-snapshot corrupt.rrws
grep -q 'world snapshot rejected' fallback.out
grep -q '"path": *"fit"' ready.json
grep -q '"fallback": *true' ready.json
curl -sf "$BASE$ROUTE" > route-fallback.json
diff route-fit.json route-fallback.json
kill -TERM $DAEMON && wait $DAEMON
echo "corrupt snapshot fell back to full fit"
