#!/usr/bin/env bash
# Crash-recovery smoke: feed riskrouted three advisories from a directory,
# kill -9 it mid-stream, restart it on the same journal, and require the
# generation and route answers of a run that never crashed.
#
# Runs in the current directory, which must hold a ./riskrouted build, and
# leaves the feed, the journals, logs and answers there. CI runs it from the
# checkout root; `make smoke` runs it in .smoke/.
set -euo pipefail
# Stop a daemon that a failed check left running.
trap 'kill ${DAEMON:-} 2>/dev/null || true' EXIT
mkdir -p feed
./riskrouted -emit-advisory Sandy:5  > feed/adv-001.txt
./riskrouted -emit-advisory Sandy:12 > feed/adv-002.txt
./riskrouted -emit-advisory Sandy:20 > feed/adv-003.txt

ROUTE='/v1/route?network=Sprint&from=Atlanta&to=Seattle'
boot() { # boot <wal-dir> <out> [extra flags...]
  local wal=$1 out=$2; shift 2
  ./riskrouted -addr 127.0.0.1:0 -networks Sprint -blocks 4000 \
    -event-scale 0.03 -log off -journal-dir "$wal" \
    -poll-interval 100ms "$@" > "$out" 2>&1 &
  DAEMON=$!
  for i in $(seq 1 60); do grep -q listening "$out" && break; sleep 1; done
  BASE=$(sed -n 's/.*listening on \(http:[^ ]*\).*/\1/p' "$out")
  test -n "$BASE" || { cat "$out"; exit 1; }
}
ingest_field() { # ingest_field <field> -> value (or empty)
  curl -sf "$BASE/v1/ingest" | grep -o "\"$1\": *[0-9]*" | grep -o '[0-9]*$' || true
}
normalize() { # strip the fields allowed to differ across restarts
  sed -E 's/"generation": *[0-9]+/"generation": 0/; s/"cached": *(true|false)/"cached": false/' "$1"
}

# Reference run: never crashes, ingests all three advisories.
boot wal-ref ref.out -advisory-feed feed
for i in $(seq 1 60); do
  [ "$(ingest_field accepted)" = "3" ] && break; sleep 1
done
GEN_REF=$(ingest_field generation)
curl -sf "$BASE$ROUTE" > route-ref.json
echo "reference run at generation $GEN_REF"
kill -TERM $DAEMON && wait $DAEMON

# Crash run: same feed, fresh journal; kill -9 as soon as the
# poller is mid-stream (at least one advisory swapped in).
boot wal-crash crash.out -advisory-feed feed
for i in $(seq 1 60); do
  n=$(ingest_field accepted); [ -n "$n" ] && [ "$n" -ge 1 ] && break; sleep 1
done
kill -9 $DAEMON; wait $DAEMON || true
echo "killed -9 after $n accepted advisories"

# Recovery run: same journal AND same feed — boot replays the
# fsynced prefix, then the poller picks up whatever the crash cut
# off. Converge on the reference generation, then require
# byte-identical route answers.
boot wal-crash recover.out -advisory-feed feed
grep -q 'journal wal-crash recovered to generation' recover.out
for i in $(seq 1 60); do
  [ "$(ingest_field generation)" = "$GEN_REF" ] && break; sleep 1
done
if [ "$(ingest_field generation)" != "$GEN_REF" ]; then
  echo "recovered daemon never reached generation $GEN_REF:"
  curl -sf "$BASE/v1/ingest"; exit 1
fi
[ "$(ingest_field journal_lag)" = "0" ]
curl -sf "$BASE$ROUTE" > route-recovered.json
diff <(normalize route-ref.json) <(normalize route-recovered.json)
echo "route answers identical after kill -9 recovery"
kill -TERM $DAEMON && wait $DAEMON
