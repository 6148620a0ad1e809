#!/usr/bin/env bash
# Collection drill: a router over 3 shards, streaming bulk ingest, scatter
# identity, a routed write, an online rebalance, kill -9 of one shard, and
# a clean stop of the rest.
. "$(dirname "$0")/lib.sh"

RT=/tmp/ruid-rt.sock
# a corpus of XML files to bulk-ingest
mkdir -p /tmp/ruid-corpus
for i in $(seq 1 12); do
  "$RUIDTOOL" generate --kind dblp --size 200 --seed "$i" \
    --output /tmp/ruid-corpus/doc$i.xml
done
# three bare shards and a router in front
declare -a SPID
for i in 0 1 2; do
  "$RUIDTOOL" serve --socket /tmp/ruid-s$i.sock --data-dir /tmp/ruid-sd$i \
    --gen-kind none --workers 2 --max-queue 16 &
  SPID[$i]=$!
done
for i in 0 1 2; do wait_socket /tmp/ruid-s$i.sock; done
"$RUIDTOOL" router --socket "$RT" \
  --shard /tmp/ruid-s0.sock --shard /tmp/ruid-s1.sock --shard /tmp/ruid-s2.sock &
RTPID=$!
wait_socket "$RT"
# streaming bulk ingest, bucketed by the placement hash
"$RUIDTOOL" ingest /tmp/ruid-corpus \
  --shard /tmp/ruid-s0.sock --shard /tmp/ruid-s1.sock --shard /tmp/ruid-s2.sock
# scripted scatter session
"$RUIDTOOL" client --socket "$RT" PING
"$RUIDTOOL" client --socket "$RT" DOCS | grep -q 'docs=12'
"$RUIDTOOL" client --socket "$RT" COUNT //author
# scatter count == sum of per-shard counts
RTOT=$("$RUIDTOOL" client --socket "$RT" COUNT //author | grep -o 'total=[0-9]*' | cut -d= -f2)
SSUM=0
for i in 0 1 2; do
  T=$("$RUIDTOOL" client --socket /tmp/ruid-s$i.sock COUNT //author | grep -o 'total=[0-9]*' | cut -d= -f2)
  SSUM=$((SSUM + T))
done
[ "$RTOT" = "$SSUM" ]
# forwarded single-document verbs and a routed write
"$RUIDTOOL" client --socket "$RT" COUNTD doc1 //author
"$RUIDTOOL" client --socket "$RT" UPDATE doc1 INSERT 0 0 note
"$RUIDTOOL" client --socket "$RT" QUERYD doc1 //note | grep -q 'total=1'
# online rebalance: move doc1, byte-diff its reply (modulo v=)
"$RUIDTOOL" client --socket "$RT" QUERYD doc1 //author | sed 's/v=[0-9]* //' > /tmp/q-before.txt
"$RUIDTOOL" client --socket "$RT" REBALANCE doc1 2 | grep -o 'pause_ms=[0-9.]*'
"$RUIDTOOL" client --socket "$RT" QUERYD doc1 //author | sed 's/v=[0-9]* //' > /tmp/q-after.txt
diff /tmp/q-before.txt /tmp/q-after.txt
# kill -9 one shard: scatters degrade to partial (exit 5), the rest serve
kill -9 "${SPID[1]}"
rc=0
"$RUIDTOOL" client --socket "$RT" COUNT //author > /tmp/partial.out || rc=$?
cat /tmp/partial.out
[ "$rc" = "5" ]
grep -q 'partial=1/3' /tmp/partial.out
"$RUIDTOOL" client --socket "$RT" STATS | grep -q 'router_up=1,0,1'
# doc1 now lives on shard 2 (rebalanced there), so it still serves
"$RUIDTOOL" client --socket "$RT" COUNTD doc1 //author
# shut the tier down: the router and the live shards must each exit 0
# and remove their sockets (shard 1 was killed above), shard 0 stopped
# by the SHUTDOWN verb and shard 2 by SIGTERM; then fsck every document
# on every shard
"$RUIDTOOL" client --socket "$RT" SHUTDOWN
"$RUIDTOOL" client --socket /tmp/ruid-s0.sock SHUTDOWN
kill "${SPID[2]}"
wait "$RTPID"
for i in 0 2; do wait "${SPID[$i]}"; done
for S in "$RT" /tmp/ruid-s0.sock /tmp/ruid-s2.sock; do [ ! -e "$S" ]; done
for D in /tmp/ruid-sd0 /tmp/ruid-sd1 /tmp/ruid-sd2; do fsck_dir "$D"; done
