#!/usr/bin/env bash
# Net line delta of the working tree against a git ref (default HEAD~1),
# per source root: added, removed and net lines under src/, tests/ and
# bench/. New files count once they are tracked or `git add -N`'d.
#
#   scripts/loc.sh [base-ref]
set -euo pipefail
base="${1:-HEAD~1}"
cd "$(git rev-parse --show-toplevel)"
for dir in src tests bench; do
  git diff --numstat "$base" -- "$dir" |
    awk -v dir="$dir" '{ a += $1; r += $2 }
      END { printf "%-6s +%d -%d net %+d\n", dir "/", a, r, a - r }'
done
