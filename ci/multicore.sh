#!/usr/bin/env bash
# Boot a server with 4 commit groups and 4 read domains, drive writes, and
# check the per-group STATS lines and the data it leaves.
. "$(dirname "$0")/lib.sh"

SOCK=/tmp/ruid-mc.sock
"$RUIDTOOL" serve \
  --socket "$SOCK" --data-dir /tmp/ruid-mc-data \
  --gen-kind dblp --gen-size 1500 --workers 8 \
  --commit-groups 4 --domains 4 --commit-batch 64 &
SRV=$!
wait_socket "$SOCK"
for i in $(seq 1 20); do
  "$RUIDTOOL" client --socket "$SOCK" UPDATE dblp INSERT 0 0 note
done
"$RUIDTOOL" client --socket "$SOCK" CHECK dblp
printf 'COUNT //note\nSTATS\nSHUTDOWN\n' | \
  "$RUIDTOOL" client --socket "$SOCK" | tee /tmp/mc-stats.out
grep -q 'commit_groups=4' /tmp/mc-stats.out
grep -q 'group=0' /tmp/mc-stats.out
grep -q 'group=3' /tmp/mc-stats.out
wait "$SRV"
"$RUIDTOOL" fsck /tmp/ruid-mc-data/dblp.xml \
  --sidecar /tmp/ruid-mc-data/dblp.ruid --wal /tmp/ruid-mc-data/dblp.wal
