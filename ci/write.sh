#!/usr/bin/env bash
# Boot a batching server that rotates its journal every 128 bytes, drive
# 20 writes through it, and check the journal family it leaves.
. "$(dirname "$0")/lib.sh"

SOCK=/tmp/ruid-wr.sock
"$RUIDTOOL" serve \
  --socket "$SOCK" --data-dir /tmp/ruid-wr-data \
  --gen-kind dblp --gen-size 1500 --workers 4 \
  --commit-batch 64 --wal-segment-bytes 128 &
SRV=$!
wait_socket "$SOCK"
for i in $(seq 1 20); do
  "$RUIDTOOL" client --socket "$SOCK" UPDATE dblp INSERT 0 0 note
done
"$RUIDTOOL" client --socket "$SOCK" CHECK dblp
printf 'COUNT //note\nSTATS\nSHUTDOWN\n' | "$RUIDTOOL" client --socket "$SOCK"
wait "$SRV"
# the rotations left a bounded journal family: at most one checkpoint
# pair and one archive (and at least one rotation)
[ -n "$(find /tmp/ruid-wr-data -maxdepth 1 -name 'dblp.wal.seg*')" ]
bounded /tmp/ruid-wr-data
"$RUIDTOOL" fsck /tmp/ruid-wr-data/dblp.xml \
  --sidecar /tmp/ruid-wr-data/dblp.ruid --wal /tmp/ruid-wr-data/dblp.wal
