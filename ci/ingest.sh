#!/usr/bin/env bash
# Ingest drill: parallel streaming ingest through a router over 2 shards,
# one document over the 1 MiB frame cap shipped as ADDCHUNK, copy on first
# write, and a clean stop.
. "$(dirname "$0")/lib.sh"

RT=/tmp/ruid-in-rt.sock
# a corpus of small files plus one document over the 1 MiB frame cap,
# which must ship as an ADDCHUNK sequence
mkdir -p /tmp/ruid-in-corpus
for i in $(seq 1 8); do
  "$RUIDTOOL" generate --kind dblp --size 300 --seed "$i" \
    --output /tmp/ruid-in-corpus/doc$i.xml
done
"$RUIDTOOL" generate --kind dblp --size 70000 --seed 99 \
  --output /tmp/ruid-in-corpus/big.xml
[ "$(stat -c %s /tmp/ruid-in-corpus/big.xml)" -gt 1048576 ]
declare -a SPID
for i in 0 1; do
  "$RUIDTOOL" serve --socket /tmp/ruid-in-s$i.sock --data-dir /tmp/ruid-in-d$i \
    --gen-kind none --workers 2 --max-queue 16 &
  SPID[$i]=$!
done
for i in 0 1; do wait_socket /tmp/ruid-in-s$i.sock; done
"$RUIDTOOL" router --socket "$RT" \
  --shard /tmp/ruid-in-s0.sock --shard /tmp/ruid-in-s1.sock &
RTPID=$!
wait_socket "$RT"
# one streaming pass per file, three workers per shard
"$RUIDTOOL" ingest /tmp/ruid-in-corpus --parallel 3 \
  --shard /tmp/ruid-in-s0.sock --shard /tmp/ruid-in-s1.sock
"$RUIDTOOL" client --socket "$RT" DOCS | grep -q 'docs=9'
# the chunk-shipped document answers like any other, and the router and
# the owning shard agree on it
T=$("$RUIDTOOL" client --socket "$RT" COUNTD big //title | grep -o 'total=[0-9]*' | cut -d= -f2)
[ "$T" -gt 1000 ]
for i in 0 1; do
  if "$RUIDTOOL" client --socket /tmp/ruid-in-s$i.sock DOCS | grep -q 'big'; then
    S=$("$RUIDTOOL" client --socket /tmp/ruid-in-s$i.sock COUNTD big //title | grep -o 'total=[0-9]*' | cut -d= -f2)
    [ "$T" = "$S" ]
  fi
done
# no spool file may survive a completed ingest
if ls /tmp/ruid-in-d0/.addchunk.* /tmp/ruid-in-d1/.addchunk.* 2>/dev/null; then
  echo 'spool file left after ingest' >&2
  exit 1
fi
# every shard reports its memory in STATS: the major heap now and at its
# peak and the peak resident set, each present and non-zero
for i in 0 1; do
  "$RUIDTOOL" client --socket /tmp/ruid-in-s$i.sock STATS > /tmp/ruid-in-stats$i
  for K in heap_words top_heap_words vm_hwm_kb; do
    V=$(tr ' ' '\n' < /tmp/ruid-in-stats$i | grep "^$K=" | cut -d= -f2)
    [ -n "$V" ] && [ "$V" -gt 0 ]
  done
done
# ingested documents are resident once: nothing written, so no shard
# holds a writer copy ...
for i in 0 1; do
  "$RUIDTOOL" client --socket /tmp/ruid-in-s$i.sock STATS | grep -q 'private_masters=0'
done
# ... until one UPDATE through the router makes exactly one, on the shard
# that owns the document
"$RUIDTOOL" client --socket "$RT" UPDATE big INSERT 0 0 note
for i in 0 1; do
  if "$RUIDTOOL" client --socket /tmp/ruid-in-s$i.sock DOCS | grep -q 'big'; then
    "$RUIDTOOL" client --socket /tmp/ruid-in-s$i.sock STATS | grep -q 'private_masters=1'
  else
    "$RUIDTOOL" client --socket /tmp/ruid-in-s$i.sock STATS | grep -q 'private_masters=0'
  fi
done
# shut down: the router and both shards must each exit 0 and remove their
# sockets; then fsck every artifact on both shards
"$RUIDTOOL" client --socket "$RT" SHUTDOWN
for i in 0 1; do
  "$RUIDTOOL" client --socket /tmp/ruid-in-s$i.sock SHUTDOWN
done
wait "$RTPID"
for i in 0 1; do wait "${SPID[$i]}"; done
for S in "$RT" /tmp/ruid-in-s0.sock /tmp/ruid-in-s1.sock; do [ ! -e "$S" ]; done
for D in /tmp/ruid-in-d0 /tmp/ruid-in-d1; do fsck_dir "$D"; done
