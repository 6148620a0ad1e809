#!/usr/bin/env bash
# Offline EXPLAIN: a chain join, and a query the DataGuide refutes.
. "$(dirname "$0")/lib.sh"

"$RUIDTOOL" generate --kind dblp --size 1500 --output /tmp/ruid-plan.xml
"$RUIDTOOL" explain /tmp/ruid-plan.xml '//article/author' | tee /tmp/explain.out
grep -q 'strategy: chain-join' /tmp/explain.out
"$RUIDTOOL" explain /tmp/ruid-plan.xml '//nosuchtag/never' | grep -q 'strategy: guide-pruned'
