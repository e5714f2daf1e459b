#!/usr/bin/env bash
# The executor LoC gate (ROADMAP "Surface diet"): prints the non-test Go
# lines of internal/engine, internal/vexec, internal/plan and internal/sqlsem
# and fails when their total exceeds scripts/loc.budget — a ceiling against
# re-growth, so raising it needs a stated reason in CHANGES.md.
#
#   scripts/loc.sh            # print the table, gate against loc.budget
set -u
cd "$(dirname "$0")/.."

total=0
for pkg in engine vexec plan sqlsem; do
  n=0
  for f in internal/$pkg/*.go; do
    case "$f" in *_test.go) continue ;; esac
    n=$((n + $(wc -l <"$f")))
  done
  printf '%-18s %6d\n' "internal/$pkg" "$n"
  total=$((total + n))
done
budget=$(cat scripts/loc.budget)
printf '%-18s %6d  (budget %d)\n' total "$total" "$budget"
if [ "$total" -gt "$budget" ]; then
  echo "loc: non-test lines in the executor packages exceed the budget"
  exit 1
fi
