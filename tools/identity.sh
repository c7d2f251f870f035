#!/usr/bin/env bash
# Byte-identity gate: build csnake and experiments once, regenerate the
# 32 outputs docs/MEASUREMENTS.md "Byte identity" lists (light
# configuration, seed 42), and check them against the committed SHA-256
# sums in docs/identity.sha256:
#
#   out_S.json / outA_S.json  csnake -json report, batch / -anytime
#   G_S.json                  the batch campaign's graph (-edges-out)
#   trace_hbase.jsonl         the HBase campaign's monitor trace
#   t3_S / t4_S               experiments -table 3 / -table 4, stdout
#   convergence_hbase         experiments -convergence -system hbase
#
# for the six systems S. A change that moves any of them fails here;
# one that means to must say why and re-record the sums. About 8.5
# minutes on 2 cores. CI runs this; it also works locally:
#
#   ./tools/identity.sh
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

echo "--- build"
(cd "$ROOT" && go build -o "$WORKDIR/csnake" ./cmd/csnake && go build -o "$WORKDIR/experiments" ./cmd/experiments)

cd "$WORKDIR"
for s in flink hbase hdfs2 hdfs3 metastore ozone; do
  echo "--- $s"
  ./csnake -system "$s" -fast -seed 42 -parallel 1 -json -edges-out "G_$s.json" >"out_$s.json" 2>/dev/null
  ./csnake -system "$s" -fast -seed 42 -parallel 1 -json -anytime >"outA_$s.json" 2>/dev/null
  ./experiments -table 3 -system "$s" -seed 42 >"t3_$s"
  ./experiments -table 4 -system "$s" -seed 42 >"t4_$s"
done
echo "--- hbase trace, convergence"
./csnake -system hbase -fast -seed 42 -parallel 1 -trace-out trace_hbase.jsonl >/dev/null 2>&1
./experiments -convergence -system hbase -seed 42 >convergence_hbase

echo "--- check"
sha256sum -c "$ROOT/docs/identity.sha256"
