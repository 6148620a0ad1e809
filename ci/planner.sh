#!/usr/bin/env bash
# Boot a server with a small plan cache and EXPLAIN over the wire; STATS
# carries the planner's counters.
. "$(dirname "$0")/lib.sh"

SOCK=/tmp/ruid-plan.sock
"$RUIDTOOL" serve \
  --socket "$SOCK" --data-dir /tmp/ruid-plan-data \
  --gen-kind dblp --gen-size 1500 --plan-cache 128 &
SRV=$!
wait_socket "$SOCK"
"$RUIDTOOL" client --socket "$SOCK" EXPLAIN //article/author | tee /tmp/explain-wire.out
grep -q 'strategy:' /tmp/explain-wire.out
"$RUIDTOOL" client --socket "$SOCK" QUERY //article/author
"$RUIDTOOL" client --socket "$SOCK" EXPLAIN //article/author
printf 'STATS\nSHUTDOWN\n' | "$RUIDTOOL" client --socket "$SOCK" | tee /tmp/stats.out
grep -q 'planner_chain=' /tmp/stats.out
grep -q 'plan_cache_hits=' /tmp/stats.out
wait "$SRV"
