#!/usr/bin/env bash
# Failover drill: a primary and two chained followers, kill -9 the
# primary, promote the first follower, and check convergence, that the
# promoted node rotates and takes membership changes like any primary,
# fencing, graceful stops and the data every node leaves.
. "$(dirname "$0")/lib.sh"

P=/tmp/ruid-rp.sock; F1=/tmp/ruid-rf1.sock; F2=/tmp/ruid-rf2.sock
"$RUIDTOOL" serve --socket "$P" --data-dir /tmp/ruid-rp-data \
  --gen-kind dblp --gen-size 1200 --wal-segment-bytes 128 &
SRV=$!
wait_socket "$P"
# a follower of the primary, and a follower of that follower
"$RUIDTOOL" replica --socket "$F1" --data-dir /tmp/ruid-rf1-data --primary "$P" --poll-ms 50 \
  --wal-segment-bytes 128 &
F1PID=$!
wait_socket "$F1"
"$RUIDTOOL" replica --socket "$F2" --data-dir /tmp/ruid-rf2-data --primary "$F1" --poll-ms 50 &
F2PID=$!
wait_socket "$F2"
# write mix (quiesced: every UPDATE is acked before the next)
for i in $(seq 1 30); do
  "$RUIDTOOL" client --socket "$P" UPDATE dblp INSERT 0 0 note > /dev/null
done
# wait for both followers to reach the primary's version
V=$(version "$P")
wait_version "$F1" "$V"
wait_version "$F2" "$V"
# hard-kill the primary and promote the first follower
kill -9 "$SRV"
"$RUIDTOOL" client --socket "$F1" --retries 5 PROMOTE
# write on the promoted node past its 128-byte segment: it must rotate
# (a node that never rotates keeps a bounded family too, so the rotation
# count is the check that can fail) and keep the family bound
for i in $(seq 1 10); do
  "$RUIDTOOL" client --socket "$F1" UPDATE dblp INSERT 0 0 failover > /dev/null
done
V=$(version "$F1")
ROT=$("$RUIDTOOL" client --socket "$F1" STATS | grep -o 'wal_rotations=[0-9]*' | cut -d= -f2)
[ "$ROT" -ge 1 ]
# a rotation runs after its batch's acks: let the last one settle
for _ in $(seq 1 50); do bounded /tmp/ruid-rf1-data && break; sleep 0.1; done
bounded /tmp/ruid-rf1-data
# the second follower converges through the promoted node's rotation
wait_version "$F2" "$V"
# byte-identical replies on both survivors
"$RUIDTOOL" client --socket "$F1" QUERY //note > /tmp/q-f1.txt
"$RUIDTOOL" client --socket "$F2" QUERY //note > /tmp/q-f2.txt
diff /tmp/q-f1.txt /tmp/q-f2.txt
"$RUIDTOOL" client --socket "$F1" QUERY //failover > /tmp/q2-f1.txt
"$RUIDTOOL" client --socket "$F2" QUERY //failover > /tmp/q2-f2.txt
diff /tmp/q2-f1.txt /tmp/q2-f2.txt
# the promoted node's STATS shows the bumped epoch
"$RUIDTOOL" client --socket "$F1" STATS | grep -q 'repl_epoch=2'
"$RUIDTOOL" client --socket "$F2" STATS | grep -q 'repl_epoch=2'
# the promoted node takes membership changes (after the diffs: F2 mirrors
# the document set fixed at its bootstrap)
"$RUIDTOOL" client --socket "$F1" "$(printf 'ADDDOC extra\n<a><b/></a>')"
"$RUIDTOOL" client --socket "$F1" DROPDOC extra
# a deposed primary (old epoch) must be refused: exit code 4
"$RUIDTOOL" serve --socket /tmp/ruid-rdep.sock --data-dir /tmp/ruid-rdep-data \
  --gen-kind dblp --gen-size 300 --epoch 1 &
DEP=$!
wait_socket /tmp/ruid-rdep.sock
rc=0
"$RUIDTOOL" replica --socket /tmp/ruid-rfx.sock --data-dir /tmp/ruid-rf2-data \
  --primary /tmp/ruid-rdep.sock || rc=$?
[ "$rc" = "4" ]
# SIGTERM stops the deposed primary gracefully: exit 0, no socket
kill "$DEP"
wait "$DEP"
[ ! -e /tmp/ruid-rdep.sock ]
# shut the survivors down cleanly: each must exit 0 and remove its
# socket; then fsck every data dir
"$RUIDTOOL" client --socket "$F2" SHUTDOWN
"$RUIDTOOL" client --socket "$F1" SHUTDOWN
wait "$F2PID"
wait "$F1PID"
[ ! -e "$F2" ]
[ ! -e "$F1" ]
# the 30 updates crossed rotations (128-byte segments)
[ -n "$(find /tmp/ruid-rp-data -maxdepth 1 -name 'dblp.wal.seg*')" ]
for D in /tmp/ruid-rp-data /tmp/ruid-rf1-data /tmp/ruid-rf2-data; do
  bounded "$D"
  "$RUIDTOOL" fsck "$D"/dblp.xml --sidecar "$D"/dblp.ruid --wal "$D"/dblp.wal
done
