#!/usr/bin/env bash
# Boot a 4-domain server with the result cache and drive it: the repeated
# COUNT is served from the cache.
. "$(dirname "$0")/lib.sh"

SOCK=/tmp/ruid-par.sock
"$RUIDTOOL" serve \
  --socket "$SOCK" --data-dir /tmp/ruid-par-data \
  --gen-kind dblp --gen-size 1500 --domains 4 --cache-mb 32 &
SRV=$!
wait_socket "$SOCK"
"$RUIDTOOL" client --socket "$SOCK" COUNT //author
"$RUIDTOOL" client --socket "$SOCK" COUNT //author
printf 'QUERY //author\nSTATS\nSHUTDOWN\n' | "$RUIDTOOL" client --socket "$SOCK"
wait "$SRV"
