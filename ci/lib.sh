# Helpers shared by the CI drills.  Each drill sources this file first;
# from then on it runs with -e -u -x and calls the built binary.
#
# Run a drill from a built checkout: dune build && ci/<name>.sh

set -eux

RUIDTOOL=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)/_build/default/bin/ruidtool.exe
[ -x "$RUIDTOOL" ] || { echo "no $RUIDTOOL: run dune build first" >&2; exit 2; }

# wait_socket PATH: wait up to 5 s for a server to listen at PATH.
wait_socket() {
  for _ in $(seq 1 50); do
    [ -S "$1" ] && return 0
    sleep 0.1
  done
  echo "nothing listens at $1 after 5 s" >&2
  return 1
}

# version SOCKET: the collection version the server reports (DOCS v=).
version() {
  "$RUIDTOOL" client --socket "$1" DOCS | grep -o 'v=[0-9]*' | cut -d= -f2
}

# wait_version SOCKET V: wait up to 10 s for the server to report version V.
wait_version() {
  for _ in $(seq 1 100); do
    [ "$(version "$1")" = "$2" ] && return 0
    sleep 0.1
  done
  echo "$1 did not reach v=$2" >&2
  return 1
}

# bounded DIR: the dblp journal family in DIR holds at most one checkpoint
# pair and one archive.
bounded() {
  for pat in 'dblp.wal.ckpt*.xml' 'dblp.wal.ckpt*.ruid' 'dblp.wal.seg*'; do
    n=$(find "$1" -maxdepth 1 -name "$pat" | wc -l)
    [ "$n" -le 1 ] || { echo "$1: $n files match $pat"; return 1; }
  done
}

# fsck_dir DIR: fsck every document in a data directory.
fsck_dir() {
  for f in "$1"/*.xml; do
    [ -e "$f" ] || continue
    b="${f%.xml}"
    "$RUIDTOOL" fsck "$f" --sidecar "$b.ruid" --wal "$b.wal"
  done
}
