#!/usr/bin/env bash
# Bench compare: run the route path's and the world set-up path's
# benchmarks on a base commit and on the working tree, on this machine, and
# fail when any benchmark's min ns/op is at least 10% slower than at the
# base. Both trees run the same benchmarks here, so the verdict compares
# the change with its base rather than this machine with the one a
# checked-in baseline was recorded on.
#
#   scripts/bench-compare.sh <base-ref>
#
# The base is checked out into a temporary git worktree, removed on exit.
# The trees run one 1 s pass each in ABBA order (base, head, head, base),
# so a machine that speeds up or slows down over the run lands on both
# sides alike, and the min of each tree's two passes absorbs scheduling
# jitter. PKGS holds the route path's rungs (graph, core, forecast, serve)
# and the world set-up path's (kde, geo, population, snapshot). Runs from
# the repository root and leaves base.out, head.out, base.json and
# head.json there. CI's bench job and `make bench-compare BASE=<ref>` run
# it.
set -euo pipefail
BASE_REF=${1:?usage: scripts/bench-compare.sh <base-ref>}
cd "$(git rev-parse --show-toplevel)"
WORKTREE=$(mktemp -d)
trap 'git worktree remove --force "$WORKTREE" 2>/dev/null || true; rm -rf "$WORKTREE"' EXIT
git worktree add --detach "$WORKTREE" "$BASE_REF"
PKGS='./internal/graph ./internal/core ./internal/forecast ./internal/serve ./internal/kde ./internal/geo ./internal/population ./internal/snapshot'
rm -f base.out head.out
for tree in base head head base; do
  dir=.
  if [ "$tree" = base ]; then dir="$WORKTREE"; fi
  (cd "$dir" && go test -run='^$' -bench=. -benchmem -count=1 -benchtime=1s $PKGS) | tee -a "$tree.out"
done
go run ./cmd/benchjson -o base.json base.out
go run ./cmd/benchjson -o head.json head.out
go run ./cmd/benchjson -compare -threshold 10 base.json head.json
