#!/usr/bin/env bash
# Daemon smoke test for csnaked: build and start the server, then drive
# the full client journey with curl -- submit a MetaStore early-stop
# campaign, stream its rounds over SSE, read the report (both seeded
# Raft storms must be detected), run a second campaign, merge the two
# persisted graphs server-side, and fetch the merged artifact. Then the
# monitor journey: export a campaign trace with csnake -trace-out,
# create a monitor, ingest the trace over HTTP, and require the SSE
# alert stream to carry both seeded storm fault ids. Then the crash
# journey: kill -9 the daemon mid-campaign, restart it on the same
# data directory, require the journal-recovered job to resume and still
# detect both storms, and require the journal to hold no per-round
# records. CI runs this; it also works locally:
#
#   ./tools/service_smoke.sh
set -euo pipefail

ADDR="127.0.0.1:${CSNAKED_PORT:-8344}"
BASE="http://$ADDR"
WORKDIR="$(mktemp -d)"
BIN="$WORKDIR/csnaked"

cleanup() {
  [ -n "${DAEMON_PID:-}" ] && kill "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

echo "--- build"
go build -o "$BIN" ./cmd/csnaked

echo "--- start csnaked on $ADDR"
"$BIN" -addr "$ADDR" -data "$WORKDIR/graphs" &
DAEMON_PID=$!

for i in $(seq 1 50); do
  if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
    echo "daemon died before becoming healthy" >&2
    exit 1
  fi
  sleep 0.2
done
curl -sf "$BASE/healthz" >/dev/null || { echo "daemon never became healthy" >&2; exit 1; }

SPEC='{"system":"metastore","seed":42,"reps":3,"delayMagnitudesMs":[500,2000,8000],"earlyStopRounds":3,"waveSize":4}'

echo "--- submit campaign"
JOB=$(curl -sf -X POST "$BASE/v1/campaigns" -d "$SPEC" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$JOB" ] || { echo "submit returned no job id" >&2; exit 1; }
echo "job: $JOB"

echo "--- stream events (SSE)"
# The stream ends on its own after the terminal state event.
EVENTS=$(curl -sf -N --max-time 120 "$BASE/v1/campaigns/$JOB/events")
echo "$EVENTS" | grep -q '^event: round' || { echo "no round events in SSE stream" >&2; exit 1; }
echo "$EVENTS" | grep -q '"state":"succeeded"' || { echo "stream did not end in success" >&2; exit 1; }
echo "rounds streamed: $(echo "$EVENTS" | grep -c '^event: round')"

echo "--- status + report"
# The stream's terminal event and the status update are one transition,
# but give the final write a moment on slow runners.
for i in $(seq 1 20); do
  curl -sf "$BASE/v1/campaigns/$JOB" | grep -q '"state": "succeeded"' && break
  sleep 0.2
done
curl -sf "$BASE/v1/campaigns/$JOB" | grep -q '"state": "succeeded"'
REPORT=$(curl -sf "$BASE/v1/campaigns/$JOB/report")
echo "$REPORT" | grep -q 'RAFT-1' || { echo "report missing RAFT-1" >&2; exit 1; }
echo "$REPORT" | grep -q 'RAFT-2' || { echo "report missing RAFT-2" >&2; exit 1; }
echo "detected both seeded storms"

echo "--- second campaign (seed 43)"
SPEC2='{"system":"metastore","seed":43,"reps":3,"delayMagnitudesMs":[500,2000,8000],"earlyStopRounds":3,"waveSize":4}'
JOB2=$(curl -sf -X POST "$BASE/v1/campaigns" -d "$SPEC2" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
for i in $(seq 1 300); do
  STATE=$(curl -sf "$BASE/v1/campaigns/$JOB2" | sed -n 's/.*"state": "\([^"]*\)".*/\1/p' | head -1)
  [ "$STATE" = succeeded ] && break
  case "$STATE" in failed|cancelled) echo "second campaign $STATE" >&2; exit 1 ;; esac
  sleep 0.5
done
[ "$STATE" = succeeded ] || { echo "second campaign never finished" >&2; exit 1; }

echo "--- merge graphs server-side"
G1=$(curl -sf "$BASE/v1/campaigns/$JOB" | sed -n 's/.*"graphId": "\([^"]*\)".*/\1/p')
G2=$(curl -sf "$BASE/v1/campaigns/$JOB2" | sed -n 's/.*"graphId": "\([^"]*\)".*/\1/p')
[ -n "$G1" ] && [ -n "$G2" ] || { echo "missing graph artifacts" >&2; exit 1; }
MERGE=$(curl -sf -X POST "$BASE/v1/graphs/merge" -d "{\"graphs\":[\"$G1\",\"$G2\"],\"research\":true}")
echo "$MERGE" | grep -q '"cycles"' || { echo "merge re-search returned no cycles" >&2; exit 1; }
MERGED=$(echo "$MERGE" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p' | head -1)

echo "--- fetch merged graph $MERGED"
curl -sf "$BASE/v1/graphs/$MERGED" | grep -q '"version"' || { echo "merged graph not served" >&2; exit 1; }
METRICS=$(curl -sf "$BASE/metrics")
echo "$METRICS" | grep -q '^csnaked_jobs_succeeded_total 2' || { echo "metrics wrong" >&2; exit 1; }
for counter in csnaked_jobs_retries_total csnaked_jobs_resumed_total csnaked_jobs_panics_total csnaked_admission_rejected_total; do
  echo "$METRICS" | grep -q "^$counter " || { echo "metrics missing $counter" >&2; exit 1; }
done

echo "--- online monitor: export a trace, ingest over HTTP, read SSE alerts"
go build -o "$WORKDIR/csnake" ./cmd/csnake
"$WORKDIR/csnake" -system metastore -fast -seed 42 -early-stop 3 -wave 4 \
  -trace-out "$WORKDIR/trace.jsonl" >/dev/null
[ -s "$WORKDIR/trace.jsonl" ] || { echo "csnake exported no trace" >&2; exit 1; }
MON=$(curl -sf -X POST "$BASE/v1/monitors" -d '{"name":"smoke"}' | sed -n 's/.*"id": "\([^"]*\)".*/\1/p' | head -1)
[ -n "$MON" ] || { echo "monitor create returned no id" >&2; exit 1; }
echo "monitor: $MON"
INGEST=$(curl -sf -X POST --data-binary "@$WORKDIR/trace.jsonl" "$BASE/v1/monitors/$MON/events")
echo "$INGEST" | grep -q '"skipped": 0' || { echo "monitor skipped records from a clean trace" >&2; exit 1; }
ALERTS=$(curl -sf -N --max-time 30 "$BASE/v1/monitors/$MON/alerts?follow=0")
echo "$ALERTS" | grep -q '^event: alert' || { echo "no alert events in SSE stream" >&2; exit 1; }
echo "$ALERTS" | grep -q 'ms.node.election_loop' || { echo "alerts missing RAFT-1 storm fault" >&2; exit 1; }
echo "$ALERTS" | grep -q 'ms.leader.snap.send_loop' || { echo "alerts missing RAFT-2 storm fault" >&2; exit 1; }
echo "alerts streamed: $(echo "$ALERTS" | grep -c '^event: alert')"
curl -sf "$BASE/v1/monitors/$MON" | grep -q '"cyclesActive"' || { echo "monitor status missing stats" >&2; exit 1; }
METRICS=$(curl -sf "$BASE/metrics")
echo "$METRICS" | grep -q '^csnaked_monitors_active 1' || { echo "metrics missing active monitor" >&2; exit 1; }
for counter in csnaked_monitor_records_total csnaked_monitor_skipped_total csnaked_monitor_alerts_total; do
  echo "$METRICS" | grep -q "^$counter " || { echo "metrics missing $counter" >&2; exit 1; }
done
echo "monitor detected both seeded storms from the ingested trace"

echo "--- crash recovery: kill -9 mid-campaign, restart, resume"
SPEC3='{"system":"metastore","seed":44,"reps":3,"delayMagnitudesMs":[500,2000,8000],"earlyStopRounds":3,"waveSize":4}'
JOB3=$(curl -sf -X POST "$BASE/v1/campaigns" -d "$SPEC3" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$JOB3" ] || { echo "third submit returned no job id" >&2; exit 1; }
# Catch the campaign mid-flight: wait until at least one round sealed.
for i in $(seq 1 300); do
  curl -sf "$BASE/v1/campaigns/$JOB3" | grep -q '"round": 1' && break
  sleep 0.2
done
curl -sf "$BASE/v1/campaigns/$JOB3" | grep -q '"round": 1' || { echo "campaign never sealed a round" >&2; exit 1; }
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true

"$BIN" -addr "$ADDR" -data "$WORKDIR/graphs" &
DAEMON_PID=$!
for i in $(seq 1 50); do
  curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -sf "$BASE/healthz" >/dev/null || { echo "daemon never came back after kill -9" >&2; exit 1; }

# The interrupted job is recovered from the journal and finishes.
for i in $(seq 1 300); do
  STATE=$(curl -sf "$BASE/v1/campaigns/$JOB3" | sed -n 's/.*"state": "\([^"]*\)".*/\1/p' | head -1)
  [ "$STATE" = succeeded ] && break
  case "$STATE" in failed|cancelled) echo "recovered campaign $STATE" >&2; exit 1 ;; esac
  sleep 0.5
done
[ "$STATE" = succeeded ] || { echo "recovered campaign never finished" >&2; exit 1; }
REPORT3=$(curl -sf "$BASE/v1/campaigns/$JOB3/report")
echo "$REPORT3" | grep -q 'RAFT-1' || { echo "resumed report missing RAFT-1" >&2; exit 1; }
echo "$REPORT3" | grep -q 'RAFT-2' || { echo "resumed report missing RAFT-2" >&2; exit 1; }
curl -sf "$BASE/v1/campaigns/$JOB3" | grep -q '"resumed": true' || { echo "recovered job not marked resumed" >&2; exit 1; }
curl -sf "$BASE/metrics" | grep -q '^csnaked_jobs_resumed_total 1' || { echo "resumed counter wrong" >&2; exit 1; }
# Rounds ride in the checkpoint side file, not the journal: after the
# resumed job finished, the journal holds submissions, transitions and
# monitor records only.
RECORDS=$(sed -n 's/^{"t":"\([^"]*\)".*/\1/p' "$WORKDIR/graphs/jobs/journal.jsonl" | sort -u | tr '\n' ' ')
[ -n "$RECORDS" ] || { echo "journal is empty" >&2; exit 1; }
for t in $RECORDS; do
  case "$t" in submit|state|mon-create|mon-delete) ;; *) echo "journal holds a \"$t\" record (types: $RECORDS)" >&2; exit 1 ;; esac
done
echo "journal record types: $RECORDS"
echo "resumed after kill -9 and detected both storms"

echo "OK: daemon smoke passed"
