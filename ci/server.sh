#!/usr/bin/env bash
# Boot a server and run a scripted client session, one verb at a time and
# then as a stdin session that shuts it down.
. "$(dirname "$0")/lib.sh"

SOCK=/tmp/ruid-ci.sock
"$RUIDTOOL" serve \
  --socket "$SOCK" --data-dir /tmp/ruid-ci-data \
  --gen-kind dblp --gen-size 1500 --workers 2 --max-queue 16 &
SRV=$!
wait_socket "$SOCK"
"$RUIDTOOL" client --socket "$SOCK" PING
"$RUIDTOOL" client --socket "$SOCK" DOCS
"$RUIDTOOL" client --socket "$SOCK" COUNT //author
"$RUIDTOOL" client --socket "$SOCK" UPDATE dblp INSERT 0 0 note
"$RUIDTOOL" client --socket "$SOCK" CHECK dblp
printf 'COUNT //note\nSTATS\nSHUTDOWN\n' | "$RUIDTOOL" client --socket "$SOCK"
wait "$SRV"
