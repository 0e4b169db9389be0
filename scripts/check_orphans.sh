#!/usr/bin/env bash
# Orphan guard: fails when a library header under src/slb is included by
# nothing but its own .cc and the tests. Such a module serves no bench,
# example or other library module, so no figure or claim needs it; the
# module inventory in docs/ARCHITECTURE.md says what each header is for.
#
# Usage: scripts/check_orphans.sh

set -euo pipefail

cd "$(dirname "$0")/.."

# Headers that only tests include, kept on purpose. One line each, with the
# reason.
allowed=(
  # Sec. III-A closed-form bounds: the reference bounds_test checks the
  # simulated imbalance against.
  "slb/analysis/imbalance_bounds.h"
)

orphans=0
checked=0
while IFS= read -r header; do
  rel="${header#src/}"
  checked=$((checked + 1))
  for keep in "${allowed[@]}"; do
    [ "$rel" = "$keep" ] && continue 2
  done
  users="$(grep -rlF --include='*.h' --include='*.cc' "#include \"$rel\"" \
             src bench examples \
           | grep -vxF -e "$header" -e "${header%.h}.cc" || true)"
  if [ -z "$users" ]; then
    echo "ORPHAN  $rel: included only by tests/ and its own .cc" >&2
    orphans=$((orphans + 1))
  fi
done < <(find src/slb -name '*.h' | sort)

if [ "$orphans" -gt 0 ]; then
  echo "$orphans orphan header(s): delete the module or record in" \
       "docs/ARCHITECTURE.md which claim needs it (and allow it here)" >&2
  exit 1
fi
echo "OK    no orphan headers ($checked checked under src/slb)"
